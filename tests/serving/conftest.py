"""Shared helpers for the serving suite."""


def kill_shard(supervisor, shard_id: int) -> None:
    """SIGKILL one shard process behind the supervisor's back and reap it."""
    process = supervisor._shards[shard_id].process
    process.kill()
    process.join(timeout=10.0)
