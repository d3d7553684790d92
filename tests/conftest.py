from __future__ import annotations

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
