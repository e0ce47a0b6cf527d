/* Native kernel of the flit simulator: the injection plan (phase A)
 * and event processing (phase B) in one call, run_kernel().
 *
 * Compiled on demand by repro.flit.native and loaded through ctypes;
 * without a working C compiler FlitSimulator runs the reference event
 * loop (repro.flit.engine) instead.  The differential parity suite
 * (tests/flit/test_batched_parity.py) pins results, counters and
 * flit_interval rows to the reference event loop bit for bit.
 *
 * Random numbers.  The reference draws from a random.Random(seed).  The
 * generator here is CPython's MT19937 (Modules/_randommodule.c), seeded
 * with the 624 state words and the index of random.Random(seed).
 * getstate(), and the three draws the reference makes copy CPython:
 *  - randbelow(n): random.Random._randbelow_with_getrandbits, i.e.
 *    getrandbits(k) with k = n.bit_length(), redrawn while >= n (so
 *    randrange(1) still consumes a word);
 *  - random_double(): ((a >> 5) * 2**26 + (b >> 6)) / 2**53 from two
 *    words a, b;
 *  - expovariate(rate): -log(1.0 - random()) / rate through libm (the
 *    library is built with -lm and without fast-math).
 * repro.flit.native replays a few draws through rng_sample() against the
 * running interpreter before it uses the kernel, so a Python whose
 * random module differs gets the reference event loop, never wrong bits.
 *
 * Phase A (the injection plan).  Every draw of the reference happens
 * while it processes an _INJECT event, and the order of inject events
 * does not depend on the network: each host's next arrival depends only
 * on its own Poisson clock.  The plan therefore walks the arrival process
 * alone -- per-host float clocks and a (cycle, event id) min-heap, in the
 * reference's draw order (destination, path choices, next arrival, per
 * pop) -- and fills flat arrays: inject events in push order (cycle,
 * message id or -1 for a silent poll, successor event or -1), messages
 * (source, creation cycle, measured flag) and packets (the range of
 * their path in the route table's links[]).  A pop past the horizon
 * stops the walk and pins sim_cycles to the horizon, as in the
 * reference; a host's next arrival is only scheduled before the end of
 * the measurement window.  Traces replace the clocks: their events are
 * the trace entries in trace order, walked in the stable cycle order
 * Python passes in.  The arrays grow by doubling.
 *
 * Phase B (event processing).  The reference orders events by (time,
 * seq) with seq a global push counter.  A per-cycle bucket appended in
 * push order and drained in order reproduces that exactly: ties share a
 * bucket, and append order is seq order.  The reference's
 * _PORT_FREE/_CREDIT pair, pushed back to back at the same cycle, is
 * fused into one EV_PORTCREDIT node (still counted as two events).
 *
 * Data layout notes:
 *  - A packet's route is read straight from the route table: pkt_link
 *    indexes links[] at the channel it crosses next, pkt_stop at its
 *    last channel.
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
#include <math.h>
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
    P_N_PROCS = 0,
    P_N_CHANNELS = 1,
    P_N_VCS = 2,
    P_PPM = 3,
    P_PF = 4,
    P_WIRE_PF = 5,
    P_WIRE_RD = 6,
    P_MESSAGE_FLITS = 7,
    P_WARMUP = 8,
    P_WINDOW_END = 9,
    P_HORIZON = 10,
    P_SLACK = 11,
    P_CBITS = 12,
    P_INPUT_FIFO = 13,   /* switch model: 0 output-queued, 1 input-FIFO */
    P_OBS_INTERVAL = 14, /* telemetry interval in cycles; 0 = off */
    P_SELECTION = 15,    /* SEL_* */
    P_WORKLOAD = 16,     /* WL_* */
    P_N_WL = 17,         /* entries of the workload data (see WL_*) */
    P_COUNT = 18
};

enum { F_RATE = 0, F_HOT_FRACTION = 1, F_COUNT = 2 };

enum { SEL_PER_MESSAGE = 0, SEL_PER_PACKET = 1, SEL_ROUND_ROBIN = 2 };

/* Destination rules; `wl` holds each rule's data. */
enum {
    WL_UNIFORM = 0, /* uniform over the other hosts; no data */
    WL_TABLE = 1,   /* wl[src]: fixed destination, -1 = silent host */
    WL_HOTSPOT = 2, /* wl: sorted hot hosts (F_HOT_FRACTION) */
    WL_TRACE = 3    /* wl: cycle, src, dst, stable cycle order; n each */
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
    O_MESSAGES_MEASURED = 8,
    O_BAD_KEY = 9, /* pair key of a message with no route (RC_NO_ROUTE) */
    O_COUNT = 10
};

enum { RC_OK = 0, RC_NO_MEMORY = 1, RC_NO_ROUTE = 2 };

/* One telemetry row: t, injected, delivered, credit_stalls, occupancy. */
enum { ROW_WIDTH = 5 };

/* ------------------------------------------------------------------ */
/* CPython's MT19937 and the random.Random draws built on it            */

enum { MT_N = 624, MT_M = 397 };

typedef struct {
    uint32_t mt[MT_N];
    int index;
} Rng;

/* `state`: the 625 integers of random.Random.getstate()[1]. */
static void rng_seed(Rng *r, const i64 *state)
{
    int i;
    for (i = 0; i < MT_N; i++)
        r->mt[i] = (uint32_t)state[i];
    r->index = (int)state[MT_N];
}

static uint32_t genrand_uint32(Rng *r)
{
    static const uint32_t mag01[2] = {0x0U, 0x9908b0dfU};
    uint32_t y, *mt = r->mt;
    int kk;
    if (r->index >= MT_N) {
        for (kk = 0; kk < MT_N - MT_M; kk++) {
            y = (mt[kk] & 0x80000000U) | (mt[kk + 1] & 0x7fffffffU);
            mt[kk] = mt[kk + MT_M] ^ (y >> 1) ^ mag01[y & 0x1U];
        }
        for (; kk < MT_N - 1; kk++) {
            y = (mt[kk] & 0x80000000U) | (mt[kk + 1] & 0x7fffffffU);
            mt[kk] = mt[kk + (MT_M - MT_N)] ^ (y >> 1) ^ mag01[y & 0x1U];
        }
        y = (mt[MT_N - 1] & 0x80000000U) | (mt[0] & 0x7fffffffU);
        mt[MT_N - 1] = mt[MT_M - 1] ^ (y >> 1) ^ mag01[y & 0x1U];
        r->index = 0;
    }
    y = mt[r->index++];
    y ^= (y >> 11);
    y ^= (y << 7) & 0x9d2c5680U;
    y ^= (y << 15) & 0xefc60000U;
    y ^= (y >> 18);
    return y;
}

/* getrandbits(k), 1 <= k <= 64: words fill from the least significant
 * end, and the last one keeps only its top k mod 32 bits. */
static uint64_t getrandbits(Rng *r, int k)
{
    uint64_t lo;
    uint32_t hi;
    if (k <= 32)
        return genrand_uint32(r) >> (32 - k);
    lo = genrand_uint32(r);
    hi = genrand_uint32(r);
    if (k < 64)
        hi >>= 64 - k;
    return lo | (uint64_t)hi << 32;
}

/* _randbelow_with_getrandbits(n), n >= 1. */
static i64 randbelow(Rng *r, i64 n)
{
    const int k = 64 - __builtin_clzll((unsigned long long)n);
    uint64_t v = getrandbits(r, k);
    while (v >= (uint64_t)n)
        v = getrandbits(r, k);
    return (i64)v;
}

static double random_double(Rng *r)
{
    const uint32_t a = genrand_uint32(r) >> 5;
    const uint32_t b = genrand_uint32(r) >> 6;
    return (a * 67108864.0 + b) * (1.0 / 9007199254740992.0);
}

static double expovariate(Rng *r, double rate)
{
    return -log(1.0 - random_double(r)) / rate;
}

/* Contract check: seed from `state` (getstate()[1]) and make n_ops
 * draws, kind[i] = 0: randbelow(arg[i]), 1: random(), 2:
 * expovariate(rate[i]); out[i] is the value drawn. */
void rng_sample(const i64 *state, i64 n_ops, const i64 *kind,
                const i64 *arg, const double *rate, double *out)
{
    Rng r;
    i64 i;
    rng_seed(&r, state);
    for (i = 0; i < n_ops; i++) {
        if (kind[i] == 0)
            out[i] = (double)randbelow(&r, arg[i]);
        else if (kind[i] == 1)
            out[i] = random_double(&r);
        else
            out[i] = expovariate(&r, rate[i]);
    }
}

/* ------------------------------------------------------------------ */
/* Phase A: the injection plan                                        */

typedef struct {
    /* inject events, in push order */
    i64 *ev_cycle;
    i64 *ev_msg;     /* message id, or -1 for a silent poll */
    i64 *ev_child;   /* the host's next inject event, or -1 */
    i64 *ev_host;
    i64 n_ev;
    i64 ev_cap;
    i64 n_initial;   /* events pushed before the simulation starts */
    /* messages */
    i64 *msg_src;
    i64 *msg_created;
    uint8_t *msg_measured;
    i64 n_msgs;
    i64 msg_cap;
    i64 measured;    /* messages created inside the window */
    /* packets: links[] index of the next channel and of the last one */
    i64 *pkt_link;
    i64 *pkt_stop;
    i64 n_pkts;
    i64 pkt_cap;
    i64 hops;        /* channel crossings over all packets */
    int overflow;    /* an inject event was popped past the horizon */
    i64 bad_key;     /* RC_NO_ROUTE: the pair key without paths */
} Plan;

typedef struct {
    const i64 *pair_off;
    const i64 *path_off;
    const i64 *wl;
    i64 n_wl;
    i64 n_procs;
    i64 ppm;
    i64 warmup;
    i64 window_end;
    i64 horizon;
    int selection;
    int workload;
    double rate;
    double hot_fraction;
    i64 *rr_next;    /* round-robin: next path offset per pair key */
} PlanIn;

/* Grow `arr` to `cap` elements; returns -1 from the caller on failure
 * (the old block stays valid and owned by the plan). */
#define GROW(arr, cap)                                                    \
    do {                                                                  \
        void *grown_ = realloc((arr), (size_t)(cap) * sizeof *(arr));     \
        if (!grown_)                                                      \
            return -1;                                                    \
        (arr) = grown_;                                                   \
    } while (0)

static i64 add_event(Plan *pl, i64 cycle, i64 host)
{
    i64 e;
    if (pl->n_ev == pl->ev_cap) {
        const i64 cap = 2 * pl->ev_cap;
        GROW(pl->ev_cycle, cap);
        GROW(pl->ev_msg, cap);
        GROW(pl->ev_child, cap);
        GROW(pl->ev_host, cap);
        pl->ev_cap = cap;
    }
    e = pl->n_ev++;
    pl->ev_cycle[e] = cycle;
    pl->ev_msg[e] = -1;
    pl->ev_child[e] = -1;
    pl->ev_host[e] = host;
    return e;
}

static i64 add_message(Plan *pl, const PlanIn *in, i64 src, i64 cycle)
{
    i64 m;
    int measured;
    if (pl->n_msgs == pl->msg_cap) {
        const i64 cap = 2 * pl->msg_cap;
        GROW(pl->msg_src, cap);
        GROW(pl->msg_created, cap);
        GROW(pl->msg_measured, cap);
        pl->msg_cap = cap;
    }
    while (pl->n_pkts + in->ppm > pl->pkt_cap) {
        const i64 cap = 2 * pl->pkt_cap;
        GROW(pl->pkt_link, cap);
        GROW(pl->pkt_stop, cap);
        pl->pkt_cap = cap;
    }
    measured = in->warmup <= cycle && cycle < in->window_end;
    m = pl->n_msgs++;
    pl->msg_src[m] = src;
    pl->msg_created[m] = cycle;
    pl->msg_measured[m] = (uint8_t)measured;
    pl->measured += measured;
    return m;
}

static void add_packet(Plan *pl, const PlanIn *in, i64 pid)
{
    const i64 p = pl->n_pkts++;
    pl->pkt_link[p] = in->path_off[pid];
    pl->pkt_stop[p] = in->path_off[pid + 1] - 1;
    pl->hops += pl->pkt_stop[p] - pl->pkt_link[p] + 1;
}

/* A message from `src` to `dst` created at `cycle`, made of ppm packets
 * whose paths are drawn as the reference draws them.  Returns the
 * message id, -1 when out of memory, -2 when the pair has no route. */
static i64 emit_message(Plan *pl, const PlanIn *in, Rng *rng, i64 src,
                        i64 dst, i64 cycle)
{
    const i64 key = src * in->n_procs + dst;
    i64 first, n_paths, m, j, base = 0, pid = 0;
    if (src < 0 || src >= in->n_procs || dst >= in->n_procs) {
        pl->bad_key = key;
        return -2;
    }
    first = in->pair_off[key];
    n_paths = in->pair_off[key + 1] - first;
    if (n_paths <= 0) {
        pl->bad_key = key;
        return -2;
    }
    m = add_message(pl, in, src, cycle);
    if (m < 0)
        return -1;
    if (in->selection == SEL_ROUND_ROBIN) {
        base = in->rr_next[key];
        in->rr_next[key] = (base + in->ppm) % n_paths;
    } else if (in->selection == SEL_PER_MESSAGE) {
        pid = first + randbelow(rng, n_paths);
    }
    for (j = 0; j < in->ppm; j++) {
        if (in->selection == SEL_ROUND_ROBIN)
            pid = first + (base + j) % n_paths;
        else if (in->selection == SEL_PER_PACKET)
            pid = first + randbelow(rng, n_paths);
        add_packet(pl, in, pid);
    }
    return m;
}

/* Workload.pick_destination for the built-in rules (-1: silent). */
static i64 pick_destination(const PlanIn *in, Rng *rng, i64 src)
{
    i64 d, i, n_choices, j;
    if (in->workload == WL_TABLE)
        return in->wl[src];
    if (in->workload == WL_HOTSPOT &&
        random_double(rng) < in->hot_fraction) {
        n_choices = in->n_wl;
        for (i = 0; i < in->n_wl; i++)
            n_choices -= in->wl[i] == src;
        if (n_choices > 0) {
            j = randbelow(rng, n_choices);
            for (i = 0; i < in->n_wl; i++) {
                if (in->wl[i] != src && j-- == 0)
                    return in->wl[i];
            }
        }
    }
    d = randbelow(rng, in->n_procs - 1);
    return d >= src ? d + 1 : d;
}

/* int(clock) + 1, saturating far past any horizon. */
static i64 arrival_cycle(double clock)
{
    return clock < 4.0e18 ? (i64)clock + 1 : (i64)4e18;
}

typedef struct {
    i64 cycle;
    i64 ev;
} HeapItem;

static int heap_less(HeapItem a, HeapItem b)
{
    return a.cycle < b.cycle || (a.cycle == b.cycle && a.ev < b.ev);
}

static void heap_push(HeapItem *h, i64 *n, HeapItem item)
{
    i64 i = (*n)++, parent;
    while (i > 0) {
        parent = (i - 1) / 2;
        if (!heap_less(item, h[parent]))
            break;
        h[i] = h[parent];
        i = parent;
    }
    h[i] = item;
}

static HeapItem heap_pop(HeapItem *h, i64 *n)
{
    const HeapItem top = h[0];
    const HeapItem last = h[--(*n)];
    i64 i = 0, child;
    while ((child = 2 * i + 1) < *n) {
        if (child + 1 < *n && heap_less(h[child + 1], h[child]))
            child++;
        if (!heap_less(h[child], last))
            break;
        h[i] = h[child];
        i = child;
    }
    h[i] = last;
    return top;
}

/* Per-host Poisson clocks: the plan of a stochastic workload. */
static int plan_arrivals(Plan *pl, const PlanIn *in, Rng *rng)
{
    const i64 n_procs = in->n_procs;
    double *clock = malloc((size_t)(n_procs > 0 ? n_procs : 1) *
                           sizeof(double));
    HeapItem *heap = malloc((size_t)(n_procs > 0 ? n_procs : 1) *
                            sizeof(HeapItem));
    HeapItem top;
    i64 host, n_heap = 0, e, cid, dst, nxt, m;
    int rc = RC_NO_MEMORY;
    if (!clock || !heap)
        goto done;
    for (host = 0; host < n_procs; host++) {
        clock[host] = expovariate(rng, in->rate);
        top.cycle = arrival_cycle(clock[host]);
        top.ev = add_event(pl, top.cycle, host);
        if (top.ev < 0)
            goto done;
        heap_push(heap, &n_heap, top);
    }
    pl->n_initial = n_procs;
    while (n_heap > 0) {
        top = heap_pop(heap, &n_heap);
        if (top.cycle > in->horizon) {
            pl->overflow = 1;
            break;
        }
        e = top.ev;
        host = pl->ev_host[e];
        dst = pick_destination(in, rng, host);
        if (dst >= 0) {
            m = emit_message(pl, in, rng, host, dst, top.cycle);
            if (m < 0) {
                rc = m == -1 ? RC_NO_MEMORY : RC_NO_ROUTE;
                goto done;
            }
            pl->ev_msg[e] = m;
        }
        clock[host] += expovariate(rng, in->rate);
        nxt = arrival_cycle(clock[host]);
        if (nxt < in->window_end) {
            cid = add_event(pl, nxt, host);
            if (cid < 0)
                goto done;
            pl->ev_child[e] = cid;
            top.cycle = nxt;
            top.ev = cid;
            heap_push(heap, &n_heap, top);
        }
    }
    rc = RC_OK;
done:
    free(clock);
    free(heap);
    return rc;
}

/* A trace: one event per entry, messages in the stable cycle order. */
static int plan_trace(Plan *pl, const PlanIn *in, Rng *rng)
{
    const i64 n = in->n_wl;
    const i64 *cycle = in->wl, *src = in->wl + n, *dst = in->wl + 2 * n;
    const i64 *order = in->wl + 3 * n;
    i64 i, j, m;
    for (i = 0; i < n; i++) {
        if (add_event(pl, cycle[i], -1) < 0)
            return RC_NO_MEMORY;
    }
    pl->n_initial = n;
    for (j = 0; j < n; j++) {
        i = order[j];
        if (cycle[i] > in->horizon) {
            pl->overflow = 1;
            break;
        }
        if (dst[i] >= 0) {
            m = emit_message(pl, in, rng, src[i], dst[i], cycle[i]);
            if (m < 0)
                return m == -1 ? RC_NO_MEMORY : RC_NO_ROUTE;
            pl->ev_msg[i] = m;
        }
    }
    return RC_OK;
}

static void plan_free(Plan *pl)
{
    free(pl->ev_cycle);
    free(pl->ev_msg);
    free(pl->ev_child);
    free(pl->ev_host);
    free(pl->msg_src);
    free(pl->msg_created);
    free(pl->msg_measured);
    free(pl->pkt_link);
    free(pl->pkt_stop);
}

static int build_plan(Plan *pl, PlanIn *in, Rng *rng)
{
    /* Initial capacities: the expected event count plus slack, capped
     * (a custom arrival rate can be anything); the arrays double
     * whenever they fill. */
    double expected = in->workload == WL_TRACE
        ? (double)in->n_wl
        : (double)in->n_procs * (in->window_end * in->rate + 1.0);
    i64 events = expected < (double)(1 << 20) ? (i64)expected : 1 << 20;
    int rc;
    events += events / 8 + 16;
    pl->ev_cap = pl->msg_cap = events;
    pl->pkt_cap = events * in->ppm;
    pl->ev_cycle = malloc((size_t)events * sizeof(i64));
    pl->ev_msg = malloc((size_t)events * sizeof(i64));
    pl->ev_child = malloc((size_t)events * sizeof(i64));
    pl->ev_host = malloc((size_t)events * sizeof(i64));
    pl->msg_src = malloc((size_t)events * sizeof(i64));
    pl->msg_created = malloc((size_t)events * sizeof(i64));
    pl->msg_measured = malloc((size_t)events);
    pl->pkt_link = malloc((size_t)pl->pkt_cap * sizeof(i64));
    pl->pkt_stop = malloc((size_t)pl->pkt_cap * sizeof(i64));
    pl->bad_key = -1;
    if (!pl->ev_cycle || !pl->ev_msg || !pl->ev_child || !pl->ev_host ||
        !pl->msg_src || !pl->msg_created || !pl->msg_measured ||
        !pl->pkt_link || !pl->pkt_stop)
        return RC_NO_MEMORY;
    if (in->selection == SEL_ROUND_ROBIN) {
        in->rr_next = calloc((size_t)(in->n_procs * in->n_procs + 1),
                             sizeof(i64));
        if (!in->rr_next)
            return RC_NO_MEMORY;
    }
    rc = in->workload == WL_TRACE ? plan_trace(pl, in, rng)
                                  : plan_arrivals(pl, in, rng);
    free(in->rr_next);
    in->rr_next = NULL;
    return rc;
}

/* ------------------------------------------------------------------ */
/* Phase B: event processing                                          */

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
    i64 *pkt_link;     /* links[] index of the packet's next channel */
    const i64 *pkt_stop;
    i64 *pkt_holding;
    const int32_t *links;
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
    if (x->pkt_link[p] == x->pkt_stop[p])
        push(x, t + x->wire_pf, EV_DELIVER | p << 3);
    else
        push(x, t + x->wire_rd, EV_HEADER | p << 3);
}

/* Input-FIFO: register the head of buffer `b` with its output port once
 * the buffer's read port is free (else retry when it frees). */
static void request_head(Ctx *x, i64 b, i64 t)
{
    i64 c;
    if (x->head_pending[b] || x->buf_head[b] < 0)
        return;
    if (x->read_free[b] > t) {
        push(x, x->read_free[b], EV_HEAD_READY | b << 3);
        return;
    }
    x->head_pending[b] = 1;
    c = x->links[x->pkt_link[x->buf_head[b]]];
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
        c = x->links[x->pkt_link[p]];
        enqueue(x, c, p);
        serve(x, c, t);
    }
}

static void *alloc(i64 n, size_t size)
{
    return calloc(n > 0 ? n : 1, size);
}

/* Build the plan, then simulate it.  On RC_OK, *delays_out holds the
 * out[O_N_DELAYS] measured message delays (free with release()). */
long run_kernel(const i64 *params, const double *fparams,
                const i64 *rng_state, const i64 *wl,
                const i64 *pair_off, const i64 *path_off,
                const int32_t *links, i64 *credits, i64 *intervals,
                i64 *out, i64 **delays_out)
{
    const i64 n_procs = params[P_N_PROCS];
    const i64 ppm = params[P_PPM];
    const i64 n_channels = params[P_N_CHANNELS];
    const i64 n_vcs = params[P_N_VCS];
    const i64 n_sub = n_channels * n_vcs;
    const i64 n_buffers = n_sub + n_procs;
    const i64 message_flits = params[P_MESSAGE_FLITS];
    const i64 warmup = params[P_WARMUP];
    const i64 window_end = params[P_WINDOW_END];
    const i64 horizon = params[P_HORIZON];
    const i64 slack = params[P_SLACK];
    const i64 cbits = params[P_CBITS];
    const i64 obs_interval = params[P_OBS_INTERVAL];
    const i64 cmask = ((i64)1 << cbits) - 1;
    const i64 n_buckets = horizon + slack + 1;
    const i64 pf = params[P_PF];

    Plan pl = {0};
    PlanIn in = {0};
    Rng rng;
    i64 *msg_remaining = NULL, *delays = NULL;
    i64 n_pkts, n_msgs;
    i64 t, e, p, m, i, ev, kind, payload, c, h1, last_t, events, overflow;
    i64 n_delays, messages_completed, flits_delivered, n_rows, next_mark;
    i64 interval_injected, interval_delivered, last_stalls;
    long rc;
    Ctx x = {0};

    *delays_out = NULL;
    in.pair_off = pair_off;
    in.path_off = path_off;
    in.wl = wl;
    in.n_wl = params[P_N_WL];
    in.n_procs = n_procs;
    in.ppm = ppm;
    in.warmup = warmup;
    in.window_end = window_end;
    in.horizon = horizon;
    in.selection = (int)params[P_SELECTION];
    in.workload = (int)params[P_WORKLOAD];
    in.rate = fparams[F_RATE];
    in.hot_fraction = fparams[F_HOT_FRACTION];
    rng_seed(&rng, rng_state);
    rc = build_plan(&pl, &in, &rng);
    if (rc != RC_OK) {
        out[O_BAD_KEY] = pl.bad_key;
        goto done;
    }
    rc = RC_NO_MEMORY;
    n_pkts = pl.n_pkts;
    n_msgs = pl.n_msgs;

    x.input_fifo = params[P_INPUT_FIFO] != 0;
    x.n_vcs = n_vcs;
    x.pf = pf;
    x.wire_pf = params[P_WIRE_PF];
    x.wire_rd = params[P_WIRE_RD];
    x.cbits = cbits;
    x.links = links;
    x.pkt_link = pl.pkt_link;
    x.pkt_stop = pl.pkt_stop;
    x.credits = credits;
    x.cap = pl.n_ev + (x.input_fifo ? 4 : 2) * pl.hops + 8;

    x.busy_until = alloc(n_channels, sizeof(i64));
    x.q_head = alloc(n_channels, sizeof(i64));
    x.q_tail = alloc(n_channels, sizeof(i64));
    x.next_pkt = alloc(n_pkts, sizeof(i64));
    x.pkt_holding = alloc(n_pkts, sizeof(i64));
    x.buf_head = alloc(n_buffers, sizeof(i64));
    x.buf_tail = alloc(n_buffers, sizeof(i64));
    x.next_buf = alloc(n_buffers, sizeof(i64));
    x.read_free = alloc(n_buffers, sizeof(i64));
    x.head_pending = alloc(n_buffers, sizeof(uint8_t));
    msg_remaining = alloc(n_msgs, sizeof(i64));
    delays = alloc(pl.measured, sizeof(i64));
    x.nodes = malloc(x.cap * sizeof(Node));
    x.bucket_head = alloc(n_buckets, sizeof(i64));
    x.bucket_tail = alloc(n_buckets, sizeof(i64));
    if (!x.busy_until || !x.q_head || !x.q_tail || !x.next_pkt ||
        !x.pkt_holding || !x.buf_head || !x.buf_tail || !x.next_buf ||
        !x.read_free || !x.head_pending || !msg_remaining || !delays ||
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
    for (e = 0; e < pl.n_initial; e++) {
        if (pl.ev_cycle[e] <= horizon)
            push(&x, pl.ev_cycle[e], EV_INJECT | e << 3);
    }

    last_t = 0;
    events = 0;
    n_delays = 0;
    messages_completed = 0;
    flits_delivered = 0;
    overflow = pl.overflow;
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
                x.pkt_link[p]++;
                arrive(&x, p, x.pkt_holding[p], t);
            } else if (kind == EV_DELIVER) {
                c = x.pkt_holding[p = ev >> 3];
                x.credits[c]++; /* host drains at link rate */
                serve(&x, c / n_vcs, t);
                m = p / ppm;
                interval_delivered += pf;
                if (warmup <= t && t < window_end)
                    flits_delivered += pf;
                if (--msg_remaining[m] == 0 && pl.msg_measured[m]) {
                    messages_completed++;
                    delays[n_delays++] = t - pl.msg_created[m];
                }
            } else if (kind == EV_INJECT) {
                e = ev >> 3;
                m = pl.ev_msg[e];
                if (m >= 0) {
                    interval_injected += message_flits;
                    for (p = m * ppm; p < m * ppm + ppm; p++)
                        arrive(&x, p, n_sub + pl.msg_src[m], t);
                }
                if (pl.ev_child[e] >= 0)
                    push(&x, pl.ev_cycle[pl.ev_child[e]],
                         EV_INJECT | pl.ev_child[e] << 3);
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
    out[O_MESSAGES_MEASURED] = pl.measured;
    *delays_out = delays;
    delays = NULL;
    rc = RC_OK;

done:
    plan_free(&pl);
    free(x.busy_until);
    free(x.q_head);
    free(x.q_tail);
    free(x.next_pkt);
    free(x.pkt_holding);
    free(x.buf_head);
    free(x.buf_tail);
    free(x.next_buf);
    free(x.read_free);
    free(x.head_pending);
    free(msg_remaining);
    free(delays);
    free(x.nodes);
    free(x.bucket_head);
    free(x.bucket_tail);
    return rc;
}

/* Free a block run_kernel handed out through delays_out. */
void release(i64 *block)
{
    free(block);
}
