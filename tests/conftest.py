from __future__ import annotations

import os
import signal
import threading
import time
from contextlib import closing

import pytest

from topicensemble.annotator import ConnectionPool
from topicensemble.corpus import Topic, TopicSet
from topicensemble.stubserver import Fixture, serve


@pytest.fixture
def two_topics() -> TopicSet:
    return TopicSet(
        (
            Topic("sleep", "Sleep problems, trouble falling asleep or staying asleep."),
            Topic("appetite", "Appetite changes, eating more or less than usual."),
        )
    )


@pytest.fixture
def nested_topics() -> TopicSet:
    return TopicSet(
        (
            Topic(
                "friction",
                "Workplace friction with coworkers or managers.",
                subtopics=(
                    Topic("friction_blame", "Blamed for problems caused by others."),
                    Topic("friction_dismiss", "Suggestions dismissed without discussion."),
                ),
            ),
            Topic("sleep", "Sleep problems."),
        )
    )


@pytest.fixture
def stub_server():
    """Factory starting stub servers on ephemeral ports; stopped on teardown."""
    servers = []

    def start(doc: dict):
        server = serve(Fixture.from_dict(doc))
        servers.append(server)
        return server

    yield start
    for server in servers:
        server.stop()


@pytest.fixture
def pool():
    """A connection pool retrying 3 times after a 10 ms backoff, closed on
    teardown so that no keep-alive socket outlives the test."""
    with closing(ConnectionPool(retries=3, timeout=30.0, backoff=0.01)) as pool:
        yield pool


def _left_running(before: set[threading.Thread]) -> list[threading.Thread]:
    """The threads started since `before` (a set of threading.enumerate())
    that are still running a second later: a run_parallel worker lets the
    waiting thread go as its last step, and ends right after."""
    started = [thread for thread in threading.enumerate() if thread not in before]
    for thread in started:
        thread.join(1.0)
    return [thread for thread in started if thread.is_alive()]


@pytest.fixture(scope="session")
def left_running():
    """_left_running; session-scoped, so hypothesis tests may take it too."""
    return _left_running


def _interrupted(call, delay: float) -> tuple[KeyboardInterrupt | None, float]:
    """Run call() on the main thread while a helper thread sends SIGINT to
    this process `delay` seconds in: the KeyboardInterrupt that call() raised
    (None if it raised none) and the perf_counter time at which it returned
    or raised. The interrupt is caught here, so the session goes on; a
    signal that lands once call() is done raises nothing."""
    assert threading.current_thread() is threading.main_thread()  # where signals land
    inside = True

    def handler(signum, frame):
        if inside:
            raise KeyboardInterrupt

    previous = signal.signal(signal.SIGINT, handler)
    sender = threading.Timer(delay, os.kill, (os.getpid(), signal.SIGINT))
    error, ended = None, 0.0
    try:
        sender.start()
        try:
            call()
        finally:
            ended = time.perf_counter()
            inside = False
    except KeyboardInterrupt as exc:
        error = exc
    finally:
        sender.join()
        signal.signal(signal.SIGINT, previous)  # runs a pending handler first
    return error, ended


@pytest.fixture(scope="session")
def interrupted():
    return _interrupted
