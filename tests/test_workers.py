"""Tests for the one pool of forked workers, workers.in_order."""

import multiprocessing
import os
import time

import pytest

from polistance.workers import in_order


def test_every_part_is_taken_in_order_with_its_buffers():
    taken = []

    def part(k):
        # later parts finish first
        time.sleep(0.02 * (5 - k))
        return (k, os.getpid()), [bytes([k]) * k, bytearray(b"x")]

    in_order(part, 6, 3, lambda header, buffers: taken.append((header, buffers)))
    assert [header[0] for header, _ in taken] == list(range(6))
    assert [buffers for _, buffers in taken] == [[bytes([k]) * k, b"x"] for k in range(6)]
    assert os.getpid() not in {header[1] for header, _ in taken}
    assert multiprocessing.active_children() == []


def test_a_take_that_raises_ends_every_worker_at_once():
    def part(k):
        if k:
            time.sleep(30)
        return k, []

    def take(header, buffers):
        raise KeyError(header)

    started = time.monotonic()
    with pytest.raises(KeyError):
        in_order(part, 2, 2, take)
    assert time.monotonic() - started < 15
    assert multiprocessing.active_children() == []
