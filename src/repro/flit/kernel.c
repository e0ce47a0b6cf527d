/* Native phase-B kernel of the batched flit engine.
 *
 * Compiled on demand by repro.flit.native and loaded through ctypes;
 * without a working C compiler the batched engine runs the reference
 * engine (repro.flit.engine) instead.  Phase A
 * (repro.flit.batched._injection_plan) has already drawn every random
 * number, so the work here is pure integer event processing in the
 * reference's exact event order, for both switch models, any VC count,
 * and with or without per-interval telemetry.  The differential parity
 * suite (tests/flit/test_batched_parity.py) pins results, counters and
 * flit_interval rows to the reference engine bit for bit.
 *
 * Event order: the reference orders events by (time, seq) with seq a
 * global push counter.  A per-cycle bucket appended in push order and
 * drained in order reproduces that exactly: ties share a bucket, and
 * append order is seq order.  The reference's _PORT_FREE/_CREDIT pair,
 * pushed back to back at the same cycle, is fused into one
 * EV_PORTCREDIT node (still counted as two events).
 *
 * Data layout notes:
 *  - Output-queued: per-channel request queues are intrusive lists over
 *    packet ids (a packet waits in at most one queue).
 *  - Input-FIFO: each input buffer (one per sub-channel, then one
 *    injection queue per host) is an intrusive list over packet ids (a
 *    packet sits in at most one buffer), and per-channel request queues
 *    are intrusive lists over buffer ids (head_pending keeps a buffer in
 *    at most one queue).  Either way enqueue/dequeue are pointer writes
 *    with no allocation.
 *  - Calendar buckets are intrusive lists over an event-node arena.
 *    Pushes are: the plan's inject events; per transmit, one
 *    EV_PORTCREDIT and one EV_HEADER or EV_DELIVER; and, input-FIFO
 *    only, one EV_HEAD_READY per transmit that leaves its buffer
 *    non-empty and one per packet arrival that finds the buffer's read
 *    port busy.  A packet arrives and transmits once per hop of its
 *    route, which sizes the arena up front.  An EV_HEAD_READY that
 *    again finds the read port busy (the buffer sent another head in
 *    the meantime) re-arms itself; such chains have no static bound, so
 *    the arena doubles when it fills.
 *  - Buckets extend `slack` cycles past the horizon so pushes are never
 *    range-checked; anything parked there is a reference "pushed past
 *    the horizon, never popped" event (it only pins sim_cycles).
 *  - Telemetry: at the first event of a bucket at or past the next
 *    observation mark, one row per elapsed interval is written to
 *    `intervals` -- the reference flushes on the first event popped at
 *    or past the mark, and all events of a bucket share one cycle.
 */
#include <stdint.h>
#include <stdlib.h>

typedef int64_t i64;

enum {
    EV_HEADER = 0,     /* payload: packet id */
    EV_PORTCREDIT = 1, /* payload: channel | (holding+1) << cbits */
    EV_DELIVER = 2,    /* payload: packet id */
    EV_INJECT = 3,     /* payload: injection-plan event id */
    EV_HEAD_READY = 4  /* payload: buffer id (input-FIFO only) */
};

enum {
    P_N_PLAN = 0,
    P_N_INITIAL = 1,
    P_N_MSGS = 2,
    P_PPM = 3,
    P_N_PROCS = 4,
    P_N_CHANNELS = 5,
    P_N_VCS = 6,
    P_PF = 7,
    P_WIRE_PF = 8,
    P_WIRE_RD = 9,
    P_MESSAGE_FLITS = 10,
    P_WARMUP = 11,
    P_WINDOW_END = 12,
    P_HORIZON = 13,
    P_SLACK = 14,
    P_CBITS = 15,
    P_OVERFLOW_IN = 16,
    P_INPUT_FIFO = 17,   /* switch model: 0 output-queued, 1 input-FIFO */
    P_OBS_INTERVAL = 18, /* telemetry interval in cycles; 0 = off */
    P_COUNT = 19
};

enum {
    O_MESSAGES_COMPLETED = 0,
    O_FLITS_DELIVERED = 1,
    O_CREDIT_STALLS = 2,
    O_EVENTS = 3,
    O_LAST_T = 4,
    O_OVERFLOW = 5,
    O_N_DELAYS = 6,
    O_N_INTERVALS = 7,
    O_COUNT = 8
};

/* One telemetry row: t, injected, delivered, credit_stalls, occupancy. */
enum { ROW_WIDTH = 5 };

typedef struct {
    i64 ev;
    i64 next;
} Node;

typedef struct {
    /* network + packet state */
    i64 *busy_until;
    i64 *credits;
    i64 *q_head;       /* per-channel request queue */
    i64 *q_tail;
    i64 *q_next;       /* request-queue links: next_pkt or next_buf */
    i64 *next_pkt;     /* packet links (request queue or input buffer) */
    i64 *pkt_hop;
    i64 *pkt_holding;
    const i64 *pkt_off;
    const i64 *pkt_path;
    /* input-FIFO buffers */
    i64 *buf_head;
    i64 *buf_tail;
    i64 *next_buf;     /* buffer links within a request queue */
    i64 *read_free;
    uint8_t *head_pending;
    /* calendar queue */
    Node *nodes;
    i64 n_nodes;
    i64 cap;
    int oom;
    i64 *bucket_head;
    i64 *bucket_tail;
    /* config */
    int input_fifo;
    i64 n_vcs;
    i64 pf;
    i64 wire_pf;
    i64 wire_rd;
    i64 cbits;
    /* counters */
    i64 credit_stalls;
    i64 occupancy;     /* packets held in input buffers */
} Ctx;

/* Double the event arena.  Out of line and cold: the initial size
 * rarely runs out, and the check in push() must stay cheap. */
static __attribute__((noinline, cold)) int grow(Ctx *x)
{
    Node *grown = realloc(x->nodes, 2 * x->cap * sizeof(Node));
    if (!grown) {
        x->oom = 1;
        return 1;
    }
    x->nodes = grown;
    x->cap *= 2;
    return 0;
}

static void push(Ctx *x, i64 tt, i64 ev)
{
    i64 i;
    if (x->n_nodes == x->cap && grow(x))
        return; /* the run fails once the current bucket drains */
    i = x->n_nodes++;
    x->nodes[i].ev = ev;
    x->nodes[i].next = -1;
    if (x->bucket_tail[tt] < 0)
        x->bucket_head[tt] = i;
    else
        x->nodes[x->bucket_tail[tt]].next = i;
    x->bucket_tail[tt] = i;
}

/* Append request `r` (a packet, or an input buffer) to channel `c`. */
static void enqueue(Ctx *x, i64 c, i64 r)
{
    x->q_next[r] = -1;
    if (x->q_tail[c] < 0)
        x->q_head[c] = r;
    else
        x->q_next[x->q_tail[c]] = r;
    x->q_tail[c] = r;
}

static void buffer_append(Ctx *x, i64 b, i64 p)
{
    x->next_pkt[p] = -1;
    if (x->buf_tail[b] < 0)
        x->buf_head[b] = p;
    else
        x->next_pkt[x->buf_tail[b]] = p;
    x->buf_tail[b] = p;
    x->occupancy++;
}

/* One arbitration attempt at output `c`: the oldest request wins if the
 * port is idle and any VC of `c` holds a downstream credit (lane order
 * is the shared deterministic tie-break).  Input-FIFO requests are
 * buffers, whose head packet then leaves and frees the read port
 * `pf` cycles later. */
static void serve(Ctx *x, i64 c, i64 t)
{
    i64 r, p, sub, base, v;
    if (x->busy_until[c] > t)
        return;
    r = x->q_head[c];
    if (r < 0)
        return;
    sub = -1;
    base = c * x->n_vcs;
    for (v = 0; v < x->n_vcs; v++) {
        if (x->credits[base + v] > 0) {
            sub = base + v;
            break;
        }
    }
    if (sub < 0) {
        x->credit_stalls++;
        return;
    }
    x->q_head[c] = x->q_next[r];
    if (x->q_head[c] < 0)
        x->q_tail[c] = -1;
    p = r;
    if (x->input_fifo) {
        p = x->buf_head[r];
        x->buf_head[r] = x->next_pkt[p];
        x->occupancy--;
        x->head_pending[r] = 0;
        x->read_free[r] = t + x->pf;
        if (x->buf_head[r] >= 0)
            push(x, t + x->pf, EV_HEAD_READY | r << 3);
        else
            x->buf_tail[r] = -1;
    }
    x->credits[sub]--;
    x->busy_until[c] = t + x->pf;
    push(x, t + x->pf,
         EV_PORTCREDIT | ((c | (x->pkt_holding[p] + 1) << x->cbits) << 3));
    x->pkt_holding[p] = sub;
    if (x->pkt_hop[p] == x->pkt_off[p + 1] - x->pkt_off[p] - 1)
        push(x, t + x->wire_pf, EV_DELIVER | p << 3);
    else
        push(x, t + x->wire_rd, EV_HEADER | p << 3);
}

/* Input-FIFO: register the head of buffer `b` with its output port once
 * the buffer's read port is free (else retry when it frees). */
static void request_head(Ctx *x, i64 b, i64 t)
{
    i64 p, c;
    if (x->head_pending[b] || x->buf_head[b] < 0)
        return;
    if (x->read_free[b] > t) {
        push(x, x->read_free[b], EV_HEAD_READY | b << 3);
        return;
    }
    x->head_pending[b] = 1;
    p = x->buf_head[b];
    c = x->pkt_path[x->pkt_off[p] + x->pkt_hop[p]];
    enqueue(x, c, b);
    serve(x, c, t);
}

/* A packet reaches its next forwarding stage: the output queue of its
 * next channel, or (input-FIFO) the input buffer `b` it arrived in. */
static void arrive(Ctx *x, i64 p, i64 b, i64 t)
{
    i64 c;
    if (x->input_fifo) {
        buffer_append(x, b, p);
        request_head(x, b, t);
    } else {
        c = x->pkt_path[x->pkt_off[p] + x->pkt_hop[p]];
        enqueue(x, c, p);
        serve(x, c, t);
    }
}

static void *alloc(i64 n, size_t size)
{
    return calloc(n > 0 ? n : 1, size);
}

long run_kernel(const i64 *params,
                const i64 *ev_cycle, const i64 *ev_msg, const i64 *ev_child,
                const i64 *msg_src, const i64 *msg_created,
                const uint8_t *msg_measured,
                const i64 *pkt_off, const i64 *pkt_path,
                i64 *credits, i64 *delays, i64 *intervals, i64 *out)
{
    const i64 n_plan = params[P_N_PLAN];
    const i64 n_initial = params[P_N_INITIAL];
    const i64 n_msgs = params[P_N_MSGS];
    const i64 ppm = params[P_PPM];
    const i64 n_channels = params[P_N_CHANNELS];
    const i64 n_vcs = params[P_N_VCS];
    const i64 n_sub = n_channels * n_vcs;
    const i64 n_buffers = n_sub + params[P_N_PROCS];
    const i64 message_flits = params[P_MESSAGE_FLITS];
    const i64 warmup = params[P_WARMUP];
    const i64 window_end = params[P_WINDOW_END];
    const i64 horizon = params[P_HORIZON];
    const i64 slack = params[P_SLACK];
    const i64 cbits = params[P_CBITS];
    const i64 obs_interval = params[P_OBS_INTERVAL];
    const i64 cmask = ((i64)1 << cbits) - 1;
    const i64 n_pkts = n_msgs * ppm;
    const i64 n_buckets = horizon + slack + 1;
    const i64 hops = n_pkts ? pkt_off[n_pkts] : 0;
    const i64 pf = params[P_PF];

    i64 *msg_remaining = NULL;
    i64 t, e, p, m, i, ev, kind, payload, c, h1, last_t, events, overflow;
    i64 n_delays, messages_completed, flits_delivered, n_rows, next_mark;
    i64 interval_injected, interval_delivered, last_stalls;
    long rc = 1;
    Ctx x = {0};

    x.input_fifo = params[P_INPUT_FIFO] != 0;
    x.n_vcs = n_vcs;
    x.pf = pf;
    x.wire_pf = params[P_WIRE_PF];
    x.wire_rd = params[P_WIRE_RD];
    x.cbits = cbits;
    x.pkt_off = pkt_off;
    x.pkt_path = pkt_path;
    x.credits = credits;
    x.cap = n_plan + (x.input_fifo ? 4 : 2) * hops + 8;

    x.busy_until = alloc(n_channels, sizeof(i64));
    x.q_head = alloc(n_channels, sizeof(i64));
    x.q_tail = alloc(n_channels, sizeof(i64));
    x.next_pkt = alloc(n_pkts, sizeof(i64));
    x.pkt_hop = alloc(n_pkts, sizeof(i64));
    x.pkt_holding = alloc(n_pkts, sizeof(i64));
    x.buf_head = alloc(n_buffers, sizeof(i64));
    x.buf_tail = alloc(n_buffers, sizeof(i64));
    x.next_buf = alloc(n_buffers, sizeof(i64));
    x.read_free = alloc(n_buffers, sizeof(i64));
    x.head_pending = alloc(n_buffers, sizeof(uint8_t));
    msg_remaining = alloc(n_msgs, sizeof(i64));
    x.nodes = malloc(x.cap * sizeof(Node));
    x.bucket_head = alloc(n_buckets, sizeof(i64));
    x.bucket_tail = alloc(n_buckets, sizeof(i64));
    if (!x.busy_until || !x.q_head || !x.q_tail || !x.next_pkt ||
        !x.pkt_hop || !x.pkt_holding || !x.buf_head || !x.buf_tail ||
        !x.next_buf || !x.read_free || !x.head_pending || !msg_remaining ||
        !x.nodes || !x.bucket_head || !x.bucket_tail)
        goto done;
    x.q_next = x.input_fifo ? x.next_buf : x.next_pkt;

    for (i = 0; i < n_channels; i++)
        x.q_head[i] = x.q_tail[i] = -1;
    for (i = 0; i < n_buffers; i++)
        x.buf_head[i] = x.buf_tail[i] = -1;
    for (p = 0; p < n_pkts; p++)
        x.pkt_holding[p] = -1;
    for (m = 0; m < n_msgs; m++)
        msg_remaining[m] = ppm;
    for (i = 0; i < n_buckets; i++)
        x.bucket_head[i] = x.bucket_tail[i] = -1;

    /* Initial inject events in plan (= reference push) order; initial
     * arrival cycles are the only unbounded times, hence the guard. */
    for (e = 0; e < n_initial; e++) {
        if (ev_cycle[e] <= horizon)
            push(&x, ev_cycle[e], EV_INJECT | e << 3);
    }

    last_t = 0;
    events = 0;
    n_delays = 0;
    messages_completed = 0;
    flits_delivered = 0;
    overflow = params[P_OVERFLOW_IN];
    n_rows = 0;
    next_mark = obs_interval > 0 ? obs_interval : horizon + 1;
    interval_injected = 0;
    interval_delivered = 0;
    last_stalls = 0;

    for (t = 0; t <= horizon; t++) {
        i = x.bucket_head[t];
        if (i < 0)
            continue;
        last_t = t;
        while (t >= next_mark) { /* flush observation intervals */
            i64 *row = intervals + ROW_WIDTH * n_rows++;
            row[0] = next_mark;
            row[1] = interval_injected;
            row[2] = interval_delivered;
            row[3] = x.credit_stalls - last_stalls;
            row[4] = x.occupancy;
            interval_injected = 0;
            interval_delivered = 0;
            last_stalls = x.credit_stalls;
            next_mark += obs_interval;
        }
        /* Follow next-links; same-cycle pushes extend the tail and are
         * picked up naturally, matching the heap's behavior. */
        while (i >= 0) {
            ev = x.nodes[i].ev;
            events++;
            kind = ev & 7;
            if (kind == EV_PORTCREDIT) {
                payload = ev >> 3;
                serve(&x, payload & cmask, t);
                h1 = payload >> cbits;
                if (h1) {
                    events++; /* the fused credit half */
                    x.credits[h1 - 1]++;
                    serve(&x, (h1 - 1) / n_vcs, t);
                }
            } else if (kind == EV_HEADER) {
                p = ev >> 3;
                x.pkt_hop[p]++;
                arrive(&x, p, x.pkt_holding[p], t);
            } else if (kind == EV_DELIVER) {
                c = x.pkt_holding[p = ev >> 3];
                x.credits[c]++; /* host drains at link rate */
                serve(&x, c / n_vcs, t);
                m = p / ppm;
                interval_delivered += pf;
                if (warmup <= t && t < window_end)
                    flits_delivered += pf;
                if (--msg_remaining[m] == 0 && msg_measured[m]) {
                    messages_completed++;
                    delays[n_delays++] = t - msg_created[m];
                }
            } else if (kind == EV_INJECT) {
                e = ev >> 3;
                m = ev_msg[e];
                if (m >= 0) {
                    interval_injected += message_flits;
                    for (p = m * ppm; p < m * ppm + ppm; p++)
                        arrive(&x, p, n_sub + msg_src[m], t);
                }
                if (ev_child[e] >= 0)
                    push(&x, ev_cycle[ev_child[e]],
                         EV_INJECT | ev_child[e] << 3);
            } else { /* EV_HEAD_READY */
                request_head(&x, ev >> 3, t);
            }
            i = x.nodes[i].next;
        }
        if (x.oom)
            goto done;
    }

    for (t = horizon + 1; t < n_buckets; t++) {
        if (x.bucket_head[t] >= 0) {
            overflow = 1; /* pushed past the horizon, never popped */
            break;
        }
    }

    out[O_MESSAGES_COMPLETED] = messages_completed;
    out[O_FLITS_DELIVERED] = flits_delivered;
    out[O_CREDIT_STALLS] = x.credit_stalls;
    out[O_EVENTS] = events;
    out[O_LAST_T] = last_t;
    out[O_OVERFLOW] = overflow;
    out[O_N_DELAYS] = n_delays;
    out[O_N_INTERVALS] = n_rows;
    rc = 0;

done:
    free(x.busy_until);
    free(x.q_head);
    free(x.q_tail);
    free(x.next_pkt);
    free(x.pkt_hop);
    free(x.pkt_holding);
    free(x.buf_head);
    free(x.buf_tail);
    free(x.next_buf);
    free(x.read_free);
    free(x.head_pending);
    free(msg_remaining);
    free(x.nodes);
    free(x.bucket_head);
    free(x.bucket_tail);
    return rc;
}
