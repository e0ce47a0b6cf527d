"""Batched calendar-queue flit engine, bit-identical to the reference.

``BatchedFlitSimulator`` produces exactly the event sequence of
:class:`repro.flit.engine.FlitSimulator` — same results, same telemetry,
bit for bit — but restructures *how* the sequence is produced, trading
the reference's readable object/heap/closure style for flat batch-built
state (the ROADMAP's "native-speed flit engine" item, built with the
dual-implementation-plus-parity pattern of the flow split and the churn
differential oracle):

* **Injection plan (phase A).**  Every RNG draw in the reference happens
  while processing an ``_INJECT`` event, and the relative order of
  inject events is independent of the network simulation (each host's
  next arrival depends only on its own Poisson clock).  The plan
  therefore pre-walks the injection process alone — a small heap over
  hosts replicating the reference's draw order exactly (destination,
  path choices, arrival clock, per pop) — and materializes flat
  per-message and per-packet arrays: creation cycle, measured flag, and
  one :class:`~repro.routing.table.RouteTable` path id per packet.
  Phase B is then RNG-free: the native kernel gathers its link arrays
  from the ids in one NumPy step, and the Python kernels materialize
  link tuples for the distinct ids only.

* **Calendar queue (phase B).**  The reference orders events by
  ``(time, seq)`` with ``seq`` a global push counter.  A per-cycle
  bucket appended in push order and drained in order reproduces that
  order exactly: ties share a bucket, and append order *is* seq order.
  O(log n) heap churn with tuple allocation becomes an O(1) append of
  one packed int (``kind | payload << 3``) through a pre-bound
  ``list.append`` table.  Buckets extend ``wire + packet + routing``
  cycles past the horizon (the farthest any event schedules ahead), so
  the hot path never range-checks a push; events parked in that slack
  zone are exactly the reference's "pushed past the horizon, never
  popped" events and only matter for the ``sim_cycles`` clamp.

* **Flat state and event fusion.**  Packets and messages live in
  parallel lists indexed by dense ids (packet ``j`` of message ``m`` is
  ``m * packets_per_message + j``) instead of per-packet objects, and
  the adjacent ``_PORT_FREE``/``_CREDIT`` pair that ``transmit`` pushes
  back-to-back at the same cycle is fused into a single bucket entry
  (still counted as two events, preserving the ``events`` statistic).

Numpy carries the order-insensitive bulk work (stable trace ordering,
plan summaries, :func:`~repro.flit.stats.delay_stats`); per-event state
stays in python lists because scalar list indexing beats ndarray item
access several-fold, and the event sequence — which the bit-parity
contract freezes, down to FIFO arbitration order — is irreducibly
sequential.  The payoff is wall-clock: the packed-int kernel runs the
8-port 3-tree ≥5x faster than the reference (gated by ``repro bench
--only flit``), which is what extends the flit axis to the 16-port
(1024-proc) trees the related work evaluates.

Parity contract: every :class:`~repro.flit.stats.FlitRunResult` field,
the ``flit.*`` recorder counters, the message-delay histogram, and the
per-interval ``flit_interval`` telemetry are bit-identical to the
reference for any seed, config, scheme, or trace;
``tests/flit/test_engine_parity.py`` enforces this differentially.
"""

from __future__ import annotations

import random
from collections import deque
from heapq import heappop, heappush

import numpy as np

from repro.errors import SimulationError
from repro.flit import native
from repro.flit.config import FlitConfig
from repro.flit.engine import FlitSimulator, free_vc
from repro.flit.stats import FlitRunResult, delay_stats
from repro.flit.workload import Workload
from repro.obs.recorder import get_recorder

# Packed event kinds (low 3 bits of a bucket entry; payload above).
_HEADER = 0      # payload: packet id
_PORTCREDIT = 1  # payload: channel | (holding+1) << cbits (fused pair)
_DELIVER = 2     # payload: packet id
_INJECT = 3      # payload: injection-plan event id
_HEAD_READY = 4  # payload: buffer id (input-fifo only)

#: Densest calendar the engine will allocate (one bucket per cycle up
#: front); configs past this fall back to the reference's sparse heap,
#: where a per-cycle structure would dwarf the event set.
_DENSE_HORIZON_LIMIT = 262_144

#: Registered flit engines, mirroring the flow layer's selector.
ENGINES = ("reference", "batched")


def flit_engine_class(engine: str) -> type[FlitSimulator]:
    """The simulator class for ``engine`` (see :data:`ENGINES`)."""
    if engine == "reference":
        return FlitSimulator
    if engine == "batched":
        return BatchedFlitSimulator
    raise SimulationError(
        f"unknown flit engine {engine!r}; choose from {ENGINES}")


def make_flit_simulator(engine: str, xgft, scheme, config: FlitConfig, *,
                        compiled=None, degraded=None) -> FlitSimulator:
    """Build the selected engine's simulator (shared ``--engine`` path)."""
    return flit_engine_class(engine)(
        xgft, scheme, config, compiled=compiled, degraded=degraded)


class BatchedFlitSimulator(FlitSimulator):
    """Drop-in, bit-identical, faster :class:`FlitSimulator`.

    Construction (route compilation, degraded-fabric validation,
    :meth:`from_tables`) is inherited unchanged; only :meth:`run` is
    replaced by the plan/kernel split described in the module docstring.

    >>> from repro.topology import m_port_n_tree
    >>> from repro.routing import make_scheme
    >>> from repro.flit import FlitConfig, FlitSimulator, UniformRandom
    >>> xgft = m_port_n_tree(4, 2)
    >>> cfg = FlitConfig(warmup_cycles=200, measure_cycles=500)
    >>> ref = FlitSimulator(xgft, make_scheme(xgft, "d-mod-k"), cfg)
    >>> fast = BatchedFlitSimulator(xgft, make_scheme(xgft, "d-mod-k"), cfg)
    >>> fast.run(UniformRandom(0.2)) == ref.run(UniformRandom(0.2))
    True
    """

    # ------------------------------------------------------------------
    def _injection_plan(self, workload: Workload | None, rng: random.Random,
                        trace):
        """Phase A: replay the arrival process alone, in the reference's
        exact draw order, into flat arrays.

        Returns ``(ev_cycle, ev_msg, ev_child, n_initial, msg_src,
        msg_created, msg_measured, pkt_pid, overflow)``: injection
        events in *push order* (cycle, message id or -1 for a silent
        poll, successor event id or -1), per-message state, one
        :class:`~repro.routing.table.RouteTable` path id per packet, and
        whether any event lands past the horizon (which pins
        ``sim_cycles`` to the horizon, as in the reference).
        """
        cfg = self.config
        n_procs = self._n_procs
        pair_off = self.routes.pair_off
        ppm = cfg.packets_per_message
        warmup = cfg.warmup_cycles
        window_end = cfg.end_of_window
        horizon = cfg.horizon
        per_packet = cfg.path_selection == "per-packet"
        round_robin = cfg.path_selection == "round-robin"

        ev_cycle: list[int] = []
        ev_msg: list[int] = []
        ev_child: list[int] = []
        msg_src: list[int] = []
        msg_created: list[int] = []
        msg_measured: list[bool] = []
        pkt_pid: list[int] = []
        pkt_append = pkt_pid.append
        # pair key -> (first path id, path count), read once per pair
        spans: dict[int, tuple[int, int]] = {}
        rr_state: dict[int, int] = {}
        overflow = False
        randrange = rng.randrange

        def emit_message(host: int, dst: int, cyc: int) -> None:
            msg_src.append(host)
            msg_created.append(cyc)
            msg_measured.append(warmup <= cyc < window_end)
            key = host * n_procs + dst
            span = spans.get(key)
            if span is None:
                first, stop = pair_off[key:key + 2].tolist()
                span = spans[key] = (first, stop - first)
            first, n_paths = span
            if round_robin:
                base = rr_state.get(key, 0)
                rr_state[key] = (base + ppm) % n_paths
                for j in range(ppm):
                    pkt_append(first + (base + j) % n_paths)
            elif per_packet:
                for _ in range(ppm):
                    pkt_append(first + randrange(n_paths))
            else:
                pid = first + randrange(n_paths)
                for _ in range(ppm):
                    pkt_append(pid)

        if trace is not None:
            n_initial = len(trace)
            ev_cycle = [e.cycle for e in trace]
            ev_msg = [-1] * n_initial
            ev_child = [-1] * n_initial
            # Stable sort = the heap's (cycle, push seq) tie-break.
            if n_initial:
                order = np.argsort(
                    np.fromiter((e.cycle for e in trace), dtype=np.int64,
                                count=n_initial),
                    kind="stable")
                for i in order.tolist():
                    cyc = ev_cycle[i]
                    if cyc > horizon:
                        overflow = True
                        break
                    dst = trace[i].dst
                    if dst >= 0:
                        ev_msg[i] = len(msg_src)
                        emit_message(trace[i].src, dst, cyc)
        else:
            mean_gap = workload.mean_interarrival(cfg.message_flits)
            rate = 1.0 / mean_gap
            expovariate = rng.expovariate
            clock = [0.0] * n_procs
            ev_host: list[int] = []
            heap: list[tuple[int, int]] = []
            for host in range(n_procs):
                clock[host] = expovariate(rate)
                cyc = int(clock[host]) + 1
                ev_cycle.append(cyc)
                ev_msg.append(-1)
                ev_child.append(-1)
                ev_host.append(host)
                heappush(heap, (cyc, host))
            n_initial = n_procs
            while heap:
                cyc, e = heappop(heap)
                if cyc > horizon:
                    overflow = True
                    break
                host = ev_host[e]
                dst = workload.pick_destination(host, n_procs, rng)
                if dst >= 0:
                    ev_msg[e] = len(msg_src)
                    emit_message(host, dst, cyc)
                nclock = clock[host] + expovariate(rate)
                clock[host] = nclock
                nxt = int(nclock) + 1
                if nxt < window_end:
                    cid = len(ev_cycle)
                    ev_cycle.append(nxt)
                    ev_msg.append(-1)
                    ev_child.append(-1)
                    ev_host.append(host)
                    ev_child[e] = cid
                    heappush(heap, (nxt, cid))

        return (ev_cycle, ev_msg, ev_child, n_initial, msg_src, msg_created,
                msg_measured, pkt_pid, overflow)

    def _with_paths(self, plan):
        """The plan with its path ids replaced by per-packet link-id
        tuples and last-hop indices, the form the Python kernels index
        per hop; each distinct path id is materialized once."""
        *head, pkt_pid, overflow = plan
        tuples = self.routes.path_tuples(pkt_pid)
        pkt_path = [tuples[pid] for pid in pkt_pid]
        return (*head, pkt_path, [len(path) - 1 for path in pkt_path],
                overflow)

    # ------------------------------------------------------------------
    def _initial_credits(self) -> list[int]:
        n_vcs = self.config.virtual_channels
        credits = [self.config.buffer_packets] * (self._n_channels * n_vcs)
        if self.degraded is not None and not self.degraded.is_pristine:
            for c, ok in enumerate(self.degraded.link_ok):
                if not ok:
                    base = c * n_vcs
                    for v in range(n_vcs):
                        credits[base + v] = 0
        return credits

    def _calendar(self, n_initial, ev_cycle):
        """Preallocated per-cycle buckets with a pre-bound append table,
        a ``slack`` overrun zone, and the initial inject events placed
        in push order (initial arrivals are the only unbounded times)."""
        cfg = self.config
        horizon = cfg.horizon
        slack = cfg.wire_delay + cfg.packet_flits + cfg.routing_delay
        buckets: list[list[int]] = [[] for _ in range(horizon + slack + 1)]
        bucket_append = [b.append for b in buckets]
        for e in range(n_initial):
            cyc = ev_cycle[e]
            if cyc <= horizon:
                bucket_append[cyc](_INJECT | e << 3)
        return buckets, bucket_append, slack

    # ------------------------------------------------------------------
    def run(self, workload: Workload | None, *, seed: int | None = None,
            recorder=None, _trace=None) -> FlitRunResult:
        """Simulate ``workload``; see :meth:`FlitSimulator.run`.

        Same contract, same bits; only the clock time differs.
        """
        if workload is None and _trace is None:
            raise SimulationError("need a workload or a trace")
        cfg = self.config
        if cfg.horizon > _DENSE_HORIZON_LIMIT:
            # A per-cycle calendar would be bigger than the event set;
            # the sparse reference heap is the right structure there.
            return FlitSimulator.run(self, workload, seed=seed,
                                     recorder=recorder, _trace=_trace)
        rec = recorder if recorder is not None else get_recorder()
        rng = random.Random(cfg.seed if seed is None else seed)
        plan = self._injection_plan(workload, rng, _trace)
        if (cfg.switch_model != "input-fifo" and not rec.enabled
                and native.available()):
            # Telemetry off: phase B is flat arrays in, flat arrays out,
            # so the compiled kernel can take it verbatim.  A recording
            # recorder needs the python kernels' interval hooks.
            slack = cfg.wire_delay + cfg.packet_flits + cfg.routing_delay
            stats = native.run_oq(plan, self.routes, cfg, self._n_channels,
                                  self._initial_credits(), slack)
        else:
            plan = self._with_paths(plan)
            if cfg.switch_model == "input-fifo":
                stats = self._kernel_fifo(rec, plan)
            elif cfg.virtual_channels == 1:
                stats = self._kernel_oq1(rec, plan)
            else:
                stats = self._kernel_oq(rec, plan)
        return self._finish(rec, workload, *stats)

    # ------------------------------------------------------------------
    def _kernel_oq1(self, rec, plan):
        """Phase B, output-queued switch model, single VC (the default
        and benchmarked configuration).

        The hot loop is fully inlined — the serve/transmit block appears
        at every call site instead of behind a function — because at the
        event rates the 5x gate demands, a python call per event is the
        budget.  With one VC the sub-channel *is* the channel, and a
        serve directly after a credit return can never stall (the
        returned credit is there), which drops two branches from the
        credit/deliver sites.  The parity suite pins every inlined copy
        to the reference.
        """
        (ev_cycle, ev_msg, ev_child, n_initial, _msg_src, msg_created,
         msg_measured, pkt_path, pkt_last, overflow) = plan
        cfg = self.config
        record = rec.enabled
        n_channels = self._n_channels
        pf = cfg.packet_flits
        wire_pf = cfg.wire_delay + pf
        wire_rd = cfg.wire_delay + cfg.routing_delay
        warmup = cfg.warmup_cycles
        window_end = cfg.end_of_window
        horizon = cfg.horizon
        ppm = cfg.packets_per_message
        message_flits = cfg.message_flits

        n_msgs = len(msg_created)
        pkt_hop = [0] * (n_msgs * ppm)
        pkt_holding = [-1] * (n_msgs * ppm)
        msg_remaining = [ppm] * n_msgs

        busy_until = [0] * n_channels
        credits = self._initial_credits()
        requests = [deque() for _ in range(n_channels)]
        req_append = [q.append for q in requests]

        cbits = n_channels.bit_length()
        cmask = (1 << cbits) - 1
        buckets, bucket_append, slack = self._calendar(n_initial, ev_cycle)

        delays: list[int] = []
        delays_append = delays.append
        messages_measured = sum(msg_measured)
        flits_created = messages_measured * message_flits
        messages_completed = 0
        flits_delivered = 0
        credit_stalls = 0
        events = 0
        last_t = 0

        obs_interval = cfg.obs_interval or max(1, cfg.measure_cycles // 20)
        next_mark = obs_interval if record else horizon + 1
        interval_injected = 0
        interval_delivered = 0
        last_stalls = 0

        t = 0
        while t <= horizon:
            bucket = buckets[t]
            if not bucket:
                t += 1
                continue
            last_t = t
            # Flush observation intervals.  ``now`` is constant across a
            # bucket, so the reference's per-event check can only fire
            # on the bucket's first event — checking once per bucket is
            # exact, not an approximation.
            while t >= next_mark:
                rec.event(
                    "flit_interval",
                    t=next_mark,
                    injected=interval_injected,
                    delivered=interval_delivered,
                    credit_stalls=credit_stalls - last_stalls,
                    occupancy=0,  # output-queued: input FIFOs unused
                )
                interval_injected = 0
                interval_delivered = 0
                last_stalls = credit_stalls
                next_mark += obs_interval
            # A list iterator observes same-cycle appends (the iterator
            # re-checks the live length), which is exactly the heap's
            # behavior for events pushed at the current cycle.
            for ev in bucket:
                kind = ev & 7

                if kind == 1:  # fused _PORT_FREE + _CREDIT
                    payload = ev >> 3
                    c = payload & cmask
                    if busy_until[c] <= t:
                        q = requests[c]
                        if q:
                            if credits[c] > 0:
                                p2 = q.popleft()
                                credits[c] -= 1
                                tt = t + pf
                                busy_until[c] = tt
                                bucket_append[tt](_PORTCREDIT | (
                                    c | (pkt_holding[p2] + 1) << cbits) << 3)
                                pkt_holding[p2] = c
                                if pkt_hop[p2] == pkt_last[p2]:
                                    bucket_append[t + wire_pf](
                                        _DELIVER | p2 << 3)
                                else:
                                    bucket_append[t + wire_rd](
                                        _HEADER | p2 << 3)
                            else:
                                credit_stalls += 1
                    h1 = payload >> cbits
                    if h1:
                        events += 1  # the fused _CREDIT half
                        c = h1 - 1  # single VC: sub-channel == channel
                        credits[c] += 1
                        if busy_until[c] <= t:
                            q = requests[c]
                            if q:
                                # The returned credit is available, so
                                # this serve cannot stall.
                                p2 = q.popleft()
                                credits[c] -= 1
                                tt = t + pf
                                busy_until[c] = tt
                                bucket_append[tt](_PORTCREDIT | (
                                    c | (pkt_holding[p2] + 1) << cbits) << 3)
                                pkt_holding[p2] = c
                                if pkt_hop[p2] == pkt_last[p2]:
                                    bucket_append[t + wire_pf](
                                        _DELIVER | p2 << 3)
                                else:
                                    bucket_append[t + wire_rd](
                                        _HEADER | p2 << 3)

                elif kind == 0:  # _HEADER: arrival at the next output
                    p = ev >> 3
                    hop = pkt_hop[p] + 1
                    pkt_hop[p] = hop
                    c = pkt_path[p][hop]
                    req_append[c](p)
                    if busy_until[c] <= t:
                        if credits[c] > 0:
                            p2 = requests[c].popleft()
                            credits[c] -= 1
                            tt = t + pf
                            busy_until[c] = tt
                            bucket_append[tt](_PORTCREDIT | (
                                c | (pkt_holding[p2] + 1) << cbits) << 3)
                            pkt_holding[p2] = c
                            if pkt_hop[p2] == pkt_last[p2]:
                                bucket_append[t + wire_pf](_DELIVER | p2 << 3)
                            else:
                                bucket_append[t + wire_rd](_HEADER | p2 << 3)
                        else:
                            credit_stalls += 1

                elif kind == 2:  # _DELIVER: tail reached the host
                    p = ev >> 3
                    c = pkt_holding[p]
                    credits[c] += 1  # host drains at link rate
                    if busy_until[c] <= t:
                        q = requests[c]
                        if q:
                            # Serve after a credit return: cannot stall.
                            p2 = q.popleft()
                            credits[c] -= 1
                            tt = t + pf
                            busy_until[c] = tt
                            bucket_append[tt](_PORTCREDIT | (
                                c | (pkt_holding[p2] + 1) << cbits) << 3)
                            pkt_holding[p2] = c
                            if pkt_hop[p2] == pkt_last[p2]:
                                bucket_append[t + wire_pf](_DELIVER | p2 << 3)
                            else:
                                bucket_append[t + wire_rd](_HEADER | p2 << 3)
                    m = p // ppm
                    rem = msg_remaining[m] - 1
                    msg_remaining[m] = rem
                    if record:
                        interval_delivered += pf
                    if warmup <= t < window_end:
                        flits_delivered += pf
                    if not rem and msg_measured[m]:
                        messages_completed += 1
                        delays_append(t - msg_created[m])

                else:  # kind == 3: _INJECT (no _HEAD_READY in this model)
                    e = ev >> 3
                    m = ev_msg[e]
                    if m >= 0:
                        if record:
                            interval_injected += message_flits
                        pb = m * ppm
                        for pj in range(pb, pb + ppm):
                            c = pkt_path[pj][0]
                            req_append[c](pj)
                            if busy_until[c] <= t:
                                if credits[c] > 0:
                                    p2 = requests[c].popleft()
                                    credits[c] -= 1
                                    tt = t + pf
                                    busy_until[c] = tt
                                    bucket_append[tt](_PORTCREDIT | (
                                        c | (pkt_holding[p2] + 1) << cbits
                                    ) << 3)
                                    pkt_holding[p2] = c
                                    if pkt_hop[p2] == pkt_last[p2]:
                                        bucket_append[t + wire_pf](
                                            _DELIVER | p2 << 3)
                                    else:
                                        bucket_append[t + wire_rd](
                                            _HEADER | p2 << 3)
                                else:
                                    credit_stalls += 1
                    child = ev_child[e]
                    if child >= 0:
                        bucket_append[ev_cycle[child]](_INJECT | child << 3)
            events += len(bucket)
            buckets[t] = None
            bucket_append[t] = None
            t += 1

        for tt in range(horizon + 1, horizon + slack + 1):
            if buckets[tt]:
                overflow = True  # pushed past the horizon, never popped
                break
        return (delays, messages_measured, messages_completed, flits_created,
                flits_delivered, credit_stalls, events,
                horizon if overflow else last_t)

    # ------------------------------------------------------------------
    def _kernel_oq(self, rec, plan):
        """Phase B, output-queued switch model, multiple VCs.

        The VC scan makes full inlining a poor trade; this kernel keeps
        the reference's closure structure over the flat arrays and the
        calendar queue, which is where the bulk of the win lives.
        """
        (ev_cycle, ev_msg, ev_child, n_initial, _msg_src, msg_created,
         msg_measured, pkt_path, pkt_last, overflow) = plan
        cfg = self.config
        record = rec.enabled
        n_channels = self._n_channels
        pf = cfg.packet_flits
        wire_pf = cfg.wire_delay + pf
        wire_rd = cfg.wire_delay + cfg.routing_delay
        warmup = cfg.warmup_cycles
        window_end = cfg.end_of_window
        horizon = cfg.horizon
        n_vcs = cfg.virtual_channels
        ppm = cfg.packets_per_message
        message_flits = cfg.message_flits

        n_msgs = len(msg_created)
        pkt_hop = [0] * (n_msgs * ppm)
        pkt_holding = [-1] * (n_msgs * ppm)
        msg_remaining = [ppm] * n_msgs

        busy_until = [0] * n_channels
        credits = self._initial_credits()
        requests = [deque() for _ in range(n_channels)]

        cbits = n_channels.bit_length()
        cmask = (1 << cbits) - 1
        buckets, bucket_append, slack = self._calendar(n_initial, ev_cycle)

        delays: list[int] = []
        messages_measured = sum(msg_measured)
        flits_created = messages_measured * message_flits
        messages_completed = 0
        flits_delivered = 0
        credit_stalls = 0
        events = 0
        last_t = 0

        obs_interval = cfg.obs_interval or max(1, cfg.measure_cycles // 20)
        next_mark = obs_interval if record else horizon + 1
        interval_injected = 0
        interval_delivered = 0
        last_stalls = 0

        def serve(c: int, t: int) -> None:
            nonlocal credit_stalls
            if busy_until[c] > t or not requests[c]:
                return
            sub = free_vc(credits, c, n_vcs)
            if sub < 0:
                credit_stalls += 1
                return
            p = requests[c].popleft()
            credits[sub] -= 1
            busy_until[c] = t + pf
            bucket_append[t + pf](
                _PORTCREDIT | (c | (pkt_holding[p] + 1) << cbits) << 3)
            pkt_holding[p] = sub
            if pkt_hop[p] == pkt_last[p]:
                bucket_append[t + wire_pf](_DELIVER | p << 3)
            else:
                bucket_append[t + wire_rd](_HEADER | p << 3)

        t = 0
        while t <= horizon:
            bucket = buckets[t]
            if not bucket:
                t += 1
                continue
            last_t = t
            while t >= next_mark:  # flush observation intervals
                rec.event(
                    "flit_interval",
                    t=next_mark,
                    injected=interval_injected,
                    delivered=interval_delivered,
                    credit_stalls=credit_stalls - last_stalls,
                    occupancy=0,  # output-queued: input FIFOs unused
                )
                interval_injected = 0
                interval_delivered = 0
                last_stalls = credit_stalls
                next_mark += obs_interval
            for ev in bucket:  # iterator observes same-cycle appends
                kind = ev & 7
                if kind == 0:  # _HEADER
                    p = ev >> 3
                    hop = pkt_hop[p] + 1
                    pkt_hop[p] = hop
                    c = pkt_path[p][hop]
                    requests[c].append(p)
                    serve(c, t)
                elif kind == 1:  # fused _PORT_FREE + _CREDIT
                    payload = ev >> 3
                    serve(payload & cmask, t)
                    h1 = payload >> cbits
                    if h1:
                        events += 1  # the fused _CREDIT half
                        h = h1 - 1
                        credits[h] += 1
                        serve(h // n_vcs, t)
                elif kind == 2:  # _DELIVER
                    p = ev >> 3
                    h = pkt_holding[p]
                    credits[h] += 1
                    serve(h // n_vcs, t)
                    m = p // ppm
                    rem = msg_remaining[m] - 1
                    msg_remaining[m] = rem
                    if record:
                        interval_delivered += pf
                    if warmup <= t < window_end:
                        flits_delivered += pf
                    if not rem and msg_measured[m]:
                        messages_completed += 1
                        delays.append(t - msg_created[m])
                else:  # _INJECT
                    e = ev >> 3
                    m = ev_msg[e]
                    if m >= 0:
                        if record:
                            interval_injected += message_flits
                        pb = m * ppm
                        for pj in range(pb, pb + ppm):
                            c = pkt_path[pj][0]
                            requests[c].append(pj)
                            serve(c, t)
                    child = ev_child[e]
                    if child >= 0:
                        bucket_append[ev_cycle[child]](_INJECT | child << 3)
            events += len(bucket)
            buckets[t] = None
            bucket_append[t] = None
            t += 1

        for tt in range(horizon + 1, horizon + slack + 1):
            if buckets[tt]:
                overflow = True
                break
        return (delays, messages_measured, messages_completed, flits_created,
                flits_delivered, credit_stalls, events,
                horizon if overflow else last_t)

    # ------------------------------------------------------------------
    def _kernel_fifo(self, rec, plan):
        """Phase B, input-fifo switch model.

        Head-of-line bookkeeping (buffer read ports, head requests)
        makes full inlining a poor trade here; the kernel keeps the
        reference's closure structure over the flat arrays and the
        calendar queue.
        """
        (ev_cycle, ev_msg, ev_child, n_initial, msg_src, msg_created,
         msg_measured, pkt_path, pkt_last, overflow) = plan
        cfg = self.config
        record = rec.enabled
        n_procs = self._n_procs
        n_channels = self._n_channels
        pf = cfg.packet_flits
        wire_pf = cfg.wire_delay + pf
        wire_rd = cfg.wire_delay + cfg.routing_delay
        warmup = cfg.warmup_cycles
        window_end = cfg.end_of_window
        horizon = cfg.horizon
        n_vcs = cfg.virtual_channels
        ppm = cfg.packets_per_message
        message_flits = cfg.message_flits

        n_msgs = len(msg_created)
        pkt_hop = [0] * (n_msgs * ppm)
        pkt_holding = [-1] * (n_msgs * ppm)
        msg_remaining = [ppm] * n_msgs

        n_sub = n_channels * n_vcs
        n_buffers = n_sub + n_procs
        buffers = [deque() for _ in range(n_buffers)]
        read_free = [0] * n_buffers
        head_pending = [False] * n_buffers
        busy_until = [0] * n_channels
        credits = self._initial_credits()
        requests = [deque() for _ in range(n_channels)]  # of buffer ids

        cbits = n_channels.bit_length()
        cmask = (1 << cbits) - 1
        buckets, bucket_append, slack = self._calendar(n_initial, ev_cycle)

        delays: list[int] = []
        messages_measured = sum(msg_measured)
        flits_created = messages_measured * message_flits
        messages_completed = 0
        flits_delivered = 0
        credit_stalls = 0
        events = 0
        last_t = 0

        obs_interval = cfg.obs_interval or max(1, cfg.measure_cycles // 20)
        next_mark = obs_interval if record else horizon + 1
        interval_injected = 0
        interval_delivered = 0
        last_stalls = 0

        def serve(c: int, t: int) -> None:
            nonlocal credit_stalls
            if busy_until[c] > t or not requests[c]:
                return
            sub = free_vc(credits, c, n_vcs)
            if sub < 0:
                credit_stalls += 1
                return
            b = requests[c].popleft()
            buf = buffers[b]
            p = buf.popleft()
            head_pending[b] = False
            read_free[b] = t + pf
            if buf:
                bucket_append[t + pf](_HEAD_READY | b << 3)
            credits[sub] -= 1
            busy_until[c] = t + pf
            bucket_append[t + pf](
                _PORTCREDIT | (c | (pkt_holding[p] + 1) << cbits) << 3)
            pkt_holding[p] = sub
            if pkt_hop[p] == pkt_last[p]:
                bucket_append[t + wire_pf](_DELIVER | p << 3)
            else:
                bucket_append[t + wire_rd](_HEADER | p << 3)

        def request_head(b: int, t: int) -> None:
            if head_pending[b] or not buffers[b]:
                return
            rf = read_free[b]
            if rf > t:
                bucket_append[rf](_HEAD_READY | b << 3)
                return
            head_pending[b] = True
            p = buffers[b][0]
            c = pkt_path[p][pkt_hop[p]]
            requests[c].append(b)
            serve(c, t)

        t = 0
        while t <= horizon:
            bucket = buckets[t]
            if not bucket:
                t += 1
                continue
            last_t = t
            while t >= next_mark:  # flush observation intervals
                rec.event(
                    "flit_interval",
                    t=next_mark,
                    injected=interval_injected,
                    delivered=interval_delivered,
                    credit_stalls=credit_stalls - last_stalls,
                    occupancy=sum(len(b) for b in buffers),
                )
                interval_injected = 0
                interval_delivered = 0
                last_stalls = credit_stalls
                next_mark += obs_interval
            for ev in bucket:  # iterator observes same-cycle appends
                kind = ev & 7
                if kind == 0:  # _HEADER
                    p = ev >> 3
                    pkt_hop[p] += 1
                    b = pkt_holding[p]  # input buffer of the crossed link
                    buffers[b].append(p)
                    request_head(b, t)
                elif kind == 1:  # fused _PORT_FREE + _CREDIT
                    payload = ev >> 3
                    serve(payload & cmask, t)
                    h1 = payload >> cbits
                    if h1:
                        events += 1  # the fused _CREDIT half
                        h = h1 - 1
                        credits[h] += 1
                        serve(h // n_vcs, t)
                elif kind == 2:  # _DELIVER
                    p = ev >> 3
                    h = pkt_holding[p]
                    credits[h] += 1
                    serve(h // n_vcs, t)
                    m = p // ppm
                    rem = msg_remaining[m] - 1
                    msg_remaining[m] = rem
                    if record:
                        interval_delivered += pf
                    if warmup <= t < window_end:
                        flits_delivered += pf
                    if not rem and msg_measured[m]:
                        messages_completed += 1
                        delays.append(t - msg_created[m])
                elif kind == 3:  # _INJECT
                    e = ev >> 3
                    m = ev_msg[e]
                    if m >= 0:
                        if record:
                            interval_injected += message_flits
                        src_b = n_sub + msg_src[m]
                        pb = m * ppm
                        for pj in range(pb, pb + ppm):
                            buffers[src_b].append(pj)
                            request_head(src_b, t)
                    child = ev_child[e]
                    if child >= 0:
                        bucket_append[ev_cycle[child]](_INJECT | child << 3)
                else:  # _HEAD_READY
                    request_head(ev >> 3, t)
            events += len(bucket)
            buckets[t] = None
            bucket_append[t] = None
            t += 1

        for tt in range(horizon + 1, horizon + slack + 1):
            if buckets[tt]:
                overflow = True
                break
        return (delays, messages_measured, messages_completed, flits_created,
                flits_delivered, credit_stalls, events,
                horizon if overflow else last_t)

    # ------------------------------------------------------------------
    def _finish(self, rec, workload, delays, messages_measured,
                messages_completed, flits_created, flits_delivered,
                credit_stalls, events, sim_cycles) -> FlitRunResult:
        cfg = self.config
        if rec.enabled:
            rec.count("flit.runs", 1)
            rec.count("flit.events", events)
            rec.count("flit.flits_injected", flits_created)
            rec.count("flit.flits_delivered", flits_delivered)
            rec.count("flit.credit_stalls", credit_stalls)
            rec.count("flit.messages_measured", messages_measured)
            rec.count("flit.messages_completed", messages_completed)
            for d in delays:
                rec.observe("flit.message_delay", d)
        mean_delay, p95_delay, max_delay = delay_stats(delays)
        denom = cfg.measure_cycles * self._n_procs
        injected = flits_created / denom if denom else 0.0
        return FlitRunResult(
            offered_load=workload.load if workload is not None else injected,
            injected_load=injected,
            throughput=flits_delivered / denom if denom else 0.0,
            mean_delay=mean_delay,
            p95_delay=p95_delay,
            max_delay=max_delay,
            messages_measured=messages_measured,
            messages_completed=messages_completed,
            sim_cycles=min(sim_cycles, cfg.horizon),
            events=events,
        )
