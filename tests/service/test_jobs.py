"""Job-table unit tests: identity, state counting, bounded retention."""

from __future__ import annotations

from repro.service.jobs import Job, JobStore


def finish(job: Job, status: str = "done") -> Job:
    job.status = status
    return job


class TestJobStore:
    def test_ids_are_unique_and_resolvable(self):
        store = JobStore()
        jobs = [store.create(f"app{i}.apkt") for i in range(5)]
        assert len({job.id for job in jobs}) == 5
        for job in jobs:
            assert store.get(job.id) is job

    def test_unknown_id_is_none(self):
        assert JobStore().get("scan-000000-ffffffff") is None

    def test_active_count_covers_queued_and_running(self):
        store = JobStore()
        store.create("a.apkt")
        finish(store.create("b.apkt"), "running")
        finish(store.create("c.apkt"), "done")
        finish(store.create("d.apkt"), "failed")
        assert store.active_count() == 2

    def test_counts_by_state(self):
        store = JobStore()
        store.create("a.apkt")
        finish(store.create("b.apkt"))
        finish(store.create("c.apkt"))
        assert store.counts() == {
            "queued": 1, "running": 0, "done": 2, "failed": 0,
        }

    def test_finished_jobs_evict_oldest_first(self):
        store = JobStore(retain_finished=2)
        old = finish(store.create("old.apkt"))
        kept = [finish(store.create(f"k{i}.apkt")) for i in range(2)]
        store.create("trigger.apkt")  # eviction runs on create
        assert store.get(old.id) is None
        for job in kept:
            assert store.get(job.id) is job

    def test_active_jobs_are_never_evicted(self):
        store = JobStore(retain_finished=0)
        active = store.create("busy.apkt")
        finish(store.create("done.apkt"))
        store.create("trigger.apkt")
        assert store.get(active.id) is active

    def test_done_property(self):
        job = Job(id="x", filename="f")
        assert not job.done
        assert finish(job, "failed").done
        assert finish(job, "done").done
