"""Tests for the handle broker: pooled attachment, lifecycle, routing.

The contract of the handle-pool redesign:

* ``per_session`` (the paper default) stays op-for-op cycle-identical to
  the pre-broker kernel — one forked handle per session;
* ``per_module``/``pooled(max_sessions=N)`` seat several sessions on one
  handle; establishment attaches (no fork), teardown detaches, and only
  the *last* detachment kills the shared handle;
* frames carry the session id, so a shared handle routes each call to the
  right secret-stack segment and a stale frame from a detached session
  fails EINVAL instead of landing on someone else's stack.
"""

import pytest

from repro.errors import SimulationError
from repro.kernel.errno import Errno
from repro.secmodule.api import SecModuleSystem
from repro.secmodule.dispatch import DispatchConfig
from repro.secmodule.handle_pool import HandlePolicy
from repro.secmodule.stubs import BatchCallFrame
from repro.sim import costs


def make_pooled(clients=3, handle_policy="per_module", seed=777, **kwargs):
    return SecModuleSystem.create_multi(clients=clients,
                                        handle_policy=handle_policy,
                                        seed=seed, **kwargs)


class TestHandlePolicy:
    def test_parse_strings(self):
        assert HandlePolicy.parse("per_session").kind == "per_session"
        assert HandlePolicy.parse("per-module").kind == "per_module"
        assert HandlePolicy.parse("pooled:4").max_sessions == 4
        assert HandlePolicy.parse("pooled", max_sessions=9).max_sessions == 9
        assert HandlePolicy.parse(None).kind == "per_session"
        already = HandlePolicy.pooled(2)
        assert HandlePolicy.parse(already) is already

    def test_parse_rejects_garbage(self):
        with pytest.raises(SimulationError):
            HandlePolicy.parse("per_planet")
        with pytest.raises(SimulationError):
            HandlePolicy.parse("pooled")          # no cap given
        with pytest.raises(SimulationError):
            HandlePolicy.pooled(0)

    def test_combine_most_restrictive_wins(self):
        per_session = HandlePolicy.per_session()
        per_module = HandlePolicy.per_module()
        assert per_session.combine(per_module).kind == "per_session"
        assert per_module.combine(per_module).kind == "per_module"
        assert per_module.combine(HandlePolicy.pooled(4)).max_sessions == 4
        assert HandlePolicy.pooled(8).combine(
            HandlePolicy.pooled(2)).max_sessions == 2

    def test_seats_per_handle(self):
        assert HandlePolicy.per_session().seats_per_handle() == 1
        assert HandlePolicy.per_module().seats_per_handle() == 0
        assert HandlePolicy.pooled(6).seats_per_handle() == 6


class TestPooledAttachment:
    def test_per_module_shares_one_handle(self):
        system = make_pooled(clients=4)
        assert len(system.sessions) == 4
        assert system.handle_count == 1
        handle = system.session.handle
        assert all(s.handle is handle for s in system.sessions)
        assert handle.session_count == 4
        assert system.extension.broker.handles_forked == 1
        assert system.extension.broker.attachments == 3

    def test_pooled_cap_forces_new_fork(self):
        system = make_pooled(clients=5, handle_policy="pooled:2")
        # ceil(5 / 2) == 3 handles
        assert system.handle_count == 3
        seats = sorted(h.session_count for h in
                       {s.handle.proc.pid: s.handle
                        for s in system.sessions}.values())
        assert seats == [1, 2, 2]

    def test_per_session_policy_still_forks_one_each(self):
        system = make_pooled(clients=3, handle_policy="per_session")
        assert system.handle_count == 3
        assert system.extension.broker.attachments == 0
        assert system.extension.broker.handles_forked == 3

    def test_attach_charges_pool_attach_not_fork(self):
        system = make_pooled(clients=1)
        meter = system.machine.meter
        forks = meter.count(costs.FORK_BASE)
        attaches = meter.count(costs.SMOD_POOL_ATTACH)
        system.attach_client()
        assert meter.count(costs.FORK_BASE) == forks          # no new fork
        assert meter.count(costs.SMOD_POOL_ATTACH) == attaches + 1

    def test_pooled_calls_work_for_every_client(self):
        system = make_pooled(clients=4)
        for index, session in enumerate(system.sessions):
            outcome = system.extension.dispatcher.call(
                session, "test_incr", index)
            assert outcome.ok and outcome.value == index + 1

    def test_shared_handle_routes_to_per_session_secret_stacks(self):
        system = make_pooled(clients=3)
        handle = system.session.handle
        stacks = {handle.secret_stack_for(s.session_id).name
                  for s in system.sessions}
        assert len(stacks) == 3          # one secret segment per seat
        # the first seat keeps the original secret stack (the 1:1 shape)
        assert handle.secret_stack_for(
            system.session.session_id) is handle.secret_stack

    def test_shared_handle_charges_routing_walk(self):
        system = make_pooled(clients=2)
        meter = system.machine.meter
        before = meter.count(costs.SMOD_POOL_ROUTE)
        system.extension.dispatcher.call(system.sessions[1], "test_incr", 1)
        assert meter.count(costs.SMOD_POOL_ROUTE) == before + 1

    def test_sole_seat_routes_for_free(self):
        system = SecModuleSystem.create(seed=778, include_libc=False)
        system.call("test_incr", 1)
        assert system.machine.meter.count(costs.SMOD_POOL_ROUTE) == 0


class TestPooledLifecycle:
    def test_detach_keeps_handle_until_last_session(self):
        system = make_pooled(clients=3)
        handle_proc = system.session.handle.proc
        sessions = list(system.sessions)
        system.extension.sessions.teardown(sessions[0])
        assert handle_proc.alive
        assert system.extension.sessions.sessions_for_handle(handle_proc) \
            == sessions[1:]
        system.extension.sessions.teardown(sessions[1])
        assert handle_proc.alive
        system.extension.sessions.teardown(sessions[2])
        assert not handle_proc.alive          # last seat out kills the handle
        assert system.extension.broker.handles_killed == 1
        assert system.extension.sessions.handle_count() == 0

    def test_client_exit_with_shared_handle_spares_other_clients(self):
        system = make_pooled(clients=3)
        handle_proc = system.session.handle.proc
        first, second, third = system.sessions
        system.kernel.syscall(first.client, "exit", 0)
        assert first.torn_down
        assert handle_proc.alive              # two seats remain
        outcome = system.extension.dispatcher.call(second, "test_incr", 5)
        assert outcome.ok and outcome.value == 6
        system.kernel.syscall(second.client, "exit", 0)
        system.kernel.syscall(third.client, "exit", 0)
        assert not handle_proc.alive          # last client's exit kills it

    def test_client_execve_with_shared_handle(self):
        from repro.obj.image import make_function_image
        from repro.obj.linker import link
        from repro.obj.loader import build_load_plan
        system = make_pooled(clients=2)
        handle_proc = system.session.handle.proc
        obj = make_function_image("newprog.o", {"start": 32, "main": 32},
                                  calls=[("start", "main")])
        plan = build_load_plan(link("newprog", [obj]).image)
        system.kernel.syscall(system.sessions[0].client, "execve", plan,
                              "newprog")
        assert system.sessions[0].torn_down
        assert not system.sessions[0].client.is_smod_client
        assert handle_proc.alive              # the other client still attached
        assert not system.sessions[1].torn_down

    def test_handle_death_tears_down_every_seated_session(self):
        system = make_pooled(clients=3)
        handle_proc = system.session.handle.proc
        system.kernel.exit_process(handle_proc)
        assert all(s.torn_down for s in system.sessions)
        assert all(s.client.alive for s in system.sessions)
        assert system.extension.sessions.handle_count() == 0

    def test_pooled_clients_can_both_grow_their_heaps(self):
        """Regression: attaching must not re-peer the shared handle's one
        window — with serial re-peering, two seated clients growing their
        heaps collided in the handle's map (overlapping-mapping crash)."""
        system = make_pooled(clients=2)
        first, second = system.clients
        assert first.malloc(64) and second.malloc(64)
        assert first.malloc(8192) and second.malloc(8192)
        # vm-level obreak peering stays exclusive to the forked 1:1 pair
        handle_space = system.session.handle.proc.vmspace
        assert handle_space.smod_peer is first.proc.vmspace
        assert first.proc.vmspace.smod_peer is handle_space
        assert second.proc.vmspace.smod_peer is None

    def test_teardown_relink_never_steals_vm_peering(self):
        """A survivor session seated on someone else's pooled handle must
        not acquire that handle's obreak peer link at teardown."""
        system = make_pooled(clients=2)
        first, second = system.sessions
        extra = system.open_extra_session()     # second session for client 0
        # tear down client 0's primary; the survivor (extra) rides the same
        # pooled handle, which is still vm-peered with client 0 — relink ok
        system.extension.sessions.teardown(first)
        assert first.client.vmspace.smod_peer is extra.handle.proc.vmspace
        # client 1's session survives on a handle peered with client 0:
        # tearing down one of client 1's other attachments must not re-point
        # vm peering at a window that is not client 1's
        assert second.client.vmspace.smod_peer is None

    def test_stale_frame_from_detached_session_fails_einval(self):
        system = make_pooled(clients=2)
        victim = system.sessions[1]
        # capture a frame the stub pushed for the victim session, then tear
        # the session down and replay the frame through the raw syscall
        outcome = system.extension.dispatcher.call(victim, "test_incr", 1)
        frame = outcome.frame
        system.extension.sessions.teardown(victim)
        queue = BatchCallFrame(frames=[frame], stack=frame.stack,
                               session_id=frame.session_id, batched=False)
        result = system.kernel.syscall(
            victim.client, "smod_call", queue, DispatchConfig())
        assert result.failed and result.errno is Errno.EINVAL

    def test_batch_through_pooled_handle_preserves_fifo_order(self):
        from repro.secmodule.module import SecModuleDefinition
        order = []

        def recorder(tag):
            def impl(env, *args):
                order.append(tag)
                return tag
            return impl

        module = SecModuleDefinition("libseq", 1)
        for tag in ("first", "second", "third"):
            module.add_function(tag, recorder(tag),
                                cost_op=costs.FUNC_BODY_TESTINCR, arg_words=0)
        system = SecModuleSystem.create_multi(
            clients=2, handle_policy="per_module", seed=779,
            include_test_module=False, extra_modules=[module])
        assert system.handle_count == 1
        outcome = system.extension.dispatcher.call_batch(
            system.sessions[1],
            [("first", ()), ("second", ()), ("third", ())],
            config=DispatchConfig(batch_size=3))
        assert outcome.ok
        assert order == ["first", "second", "third"]
        assert outcome.values == ["first", "second", "third"]
        # the pooled batch drained on the *second* seat's secret segment
        handle = system.sessions[1].handle
        assert handle.secret_stack_for(
            system.sessions[1].session_id).depth() == 0
        assert system.sessions[1].shared_stack.depth() == 0


class TestTeardownAllSurfacesErrors:
    def test_raising_teardown_still_tears_down_later_sessions(self):
        """A teardown that raises mid-list must neither be swallowed nor
        strand the client's later sessions (the exit/execve path)."""
        system = SecModuleSystem.create(seed=780, include_libc=False)
        extra = system.open_extra_session()
        sessions = system.extension.sessions.for_client(system.client_proc)
        assert sessions == [system.session, extra]

        original_kill = system.session.handle.kill
        calls = {"n": 0}

        def raising_kill():
            calls["n"] += 1
            original_kill()
            raise RuntimeError("handle refused to die cleanly")

        system.session.handle.kill = raising_kill
        with pytest.raises(RuntimeError, match="refused to die"):
            system.extension.sessions.teardown_all_for_client(
                system.client_proc)
        # the raising session is torn down AND the later one was not skipped
        assert calls["n"] == 1
        assert system.session.torn_down and extra.torn_down
        assert not extra.handle.proc.alive
        assert system.extension.sessions.for_client(system.client_proc) == []


class TestPerSessionIdentity:
    def test_per_session_call_cycles_identical_to_default(self):
        """handle_policy='per_session' must be op-for-op what the 1:1 kernel
        did: same establishment and dispatch cycle totals."""
        plain = SecModuleSystem.create(seed=4242, include_libc=False)
        explicit = SecModuleSystem.create(seed=4242, include_libc=False,
                                          handle_policy="per_session")
        for system in (plain, explicit):
            system.call("test_incr", 0)
        marks = []
        for system in (plain, explicit):
            mark = system.machine.clock.checkpoint()
            for i in range(32):
                system.call("test_incr", i)
            marks.append(system.machine.clock.since(mark).cycles)
        assert marks[0] == marks[1]
        assert plain.machine.meter.snapshot() == \
            explicit.machine.meter.snapshot()

    def test_broker_defaults_to_per_session(self):
        system = SecModuleSystem.create(seed=4242, include_libc=False)
        assert system.extension.broker.default_policy.kind == "per_session"
        assert system.extension.sessions.broker is system.extension.broker
