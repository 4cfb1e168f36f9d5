/*
 * Native tick stepper for the flat engine (repro.sim.flatcore).
 *
 * Stepper.run runs the engine's whole run loop (below); one tick of it, or
 * one call of Stepper.step(tick), runs one tick of FlatEngine.step_tick
 * after the clock advanced: it pops the tick's wheel bucket (a _Bucket:
 * `nodes`, the first-touch node list, and `lanes`, node -> list of packed
 * entries), delivers it, drains the nodes whose queued output falls due
 * and sweeps the bucket back to the free ring.  Every emission lands in
 * the engine's own wheel containers, so the native and the closure
 * stepper share one wheel representation.
 *
 * Per node, in bucket order:
 *   1. sort the lane in place: one integer sort recovers the in-tick order
 *      (priority, in-port, FIFO) because the packed layout puts those
 *      fields in that order above the code;
 *   2. a node without a live code-handler table (the root, a parked node,
 *      a processor without code handlers) is handed whole to the engine's
 *      object path, `deliver_object(node, lane)`;
 *   3. otherwise each entry of a table-walked node is resolved by one load
 *      from the kernel's `char_trans` tensor, indexed (code, in_port,
 *      phase of the code's family bank): 0 drops, a positive row emits
 *      inline (broadcast, mark-then-broadcast, tail relay, dying-body
 *      send), a negative row escapes with the filled code fused in;
 *   4. a KILL (the kernel's handler plan names its scope: IG+OG for the
 *      RCA KILL, BG for the BCA KILL) is served here too, by exactly the
 *      steps of the node's `c_kill_*` handler: purge the node's
 *      pre-scheduled growing characters of those families from the future
 *      buckets of its out-wires (the engine's purge hook, same edit), reset
 *      the processor's `_next_due`/`_max_due` as `purge_outbox` does, read
 *      `visited` from the shadow phases, and if anything was purged or
 *      visited clear the marks (written through) and broadcast the KILL at
 *      tick+1.  An intercepted bank (an RCA/BCA candidacy) hides its marks
 *      from the phase, so those are read from the register.  The KILL
 *      escapes to its handler instead while the processor holds an outbox,
 *      or once a growing character outside the kernel has been interned
 *      (the family mask cannot judge it);
 *   5. an escape calls the node's code handler `h(in_port, code)`, or the
 *      engine's `deliver_other(node, in_port, code)` when there is none
 *      (and for codes outside the kernel), in lane order, so sequence
 *      numbers and transcripts stay byte-identical to the closure path.
 *
 * Shadow phases.  Each walked node keeps six phases, one per snake family
 * bank, derived from its protocol registers (GrowingMarks, DyingRelay and
 * the RCA/BCA interception phases) by sync_node below.  Any Python call at
 * a node may move its registers, so it marks the node's phases stale; they
 * are re-derived just before the node's next row read.  The register
 * writes the walk owns are the mark of OP_MARK and the KILL's clear, both
 * written through to the processor's marks.
 *
 * The run loop.  Stepper.run(engine, max_ticks, until, stop, drain) is the
 * whole loop of Engine.run (or, with `drain`, of Engine.run_to_idle) for a
 * flat engine without a tracer.  Each iteration, in Engine.run's order:
 *   1. at `max_ticks`, hand back (the caller checks `until()` once more and
 *      raises the budget error);
 *   2. call `until()` — the one Python call a stepped tick still makes —
 *      or, without one, check idleness: no live outbox and no bucket
 *      (from tick 1 on, unless draining);
 *   3. find the next event tick as FlatEngine._next_event_tick does (drop
 *      stale `_ticks` heads, take the minimum with the `_due` heap head),
 *      bounded by `stop`;
 *   4. on a dead network, jump to `max_ticks` under `until` (it can never
 *      flip), else advance one tick, as Engine._advance does;
 *   5. otherwise fast-forward to one tick short of it, never past
 *      `max_ticks`, write engine.tick, step the tick as Stepper.step does
 *      and let pending signals (deadlines, Ctrl-C) raise.
 * Control returns to Python when the end condition holds, at the budget,
 * on any exception (engine.tick where the Python loop leaves it), and
 * right after stepping the `stop` tick: the dynamic engines apply their
 * wire ops there and re-enter.
 *
 * Counters.  Each stepper counts rows walked, handler escapes (of them,
 * deliver_other calls), object-path lanes, native KILLs, KILLs escaped at
 * walked nodes, native purges that erased something, ticks the run loop
 * stepped and ticks it moved the clock over without stepping
 * (fast-forwards, dead-network ticks, budget jumps); `counters()` reads
 * them and `reset()` zeroes them.  They describe a run, never its result.
 */

#define PY_SSIZE_T_CLEAN
#include <Python.h>
#include <stdint.h>
#include <string.h>

#ifndef REPRO_STEPPER_DIGEST
#define REPRO_STEPPER_DIGEST "unversioned"
#endif
/* the loader finds this tag in the file before loading it, so a stale
   build is rejected without ever being mapped into the process */
#define DIGEST_PREFIX "repro-stepper-key:"
static const char digest_tag[] = DIGEST_PREFIX REPRO_STEPPER_DIGEST;

/* packed wheel entry (repro.sim.flatcore) */
#define CODE_BITS 20
#define CODE_MASK ((1LL << CODE_BITS) - 1)
#define SEQ_SHIFT 20
#define SEQ_BITS 20
#define SEQ_FIELD (((1LL << SEQ_BITS) - 1) << SEQ_SHIFT)
#define PORT_SHIFT 40
#define PORT_MASK 0xFFFF
#define PRIO_SHIFT 56
/* kernel flags (repro.sim.characters) */
#define KFLAG_GROWING (1 << 1)
#define KPRIO_SHIFT 10
#define KPRIO_MASK 3
/* transition rows (repro.sim.characters) */
#define OP_MASK 7
#define OP_BCAST 1
#define OP_MARK 2
#define OP_TAIL 3
#define OP_SEND 4
#define ROW_PHASE_SHIFT 3
#define ROW_PHASE_MASK 0xFFFF
#define ROW_PORT_SHIFT 19
#define ROW_PORT_MASK 0x3F
#define ROW_CODE_SHIFT 25
#define BANKS 6
/* handler-plan slots of the two KILL scopes, and the growing banks each
   one purges and clears (IG = 0, OG = 1, BG = 4) */
#define PLAN_KILL_RCA 7
#define PLAN_KILL_BCA 8
#define KILL_RCA_BANKS ((1u << 0) | (1u << 1))
#define KILL_BCA_BANKS (1u << 4)
/* arrival offsets of the cached buckets: inline emissions land at tick+3
   and tick+4, a KILL broadcast at tick+1 */
#define CACHED 3
static const int cache_offset[CACHED] = {3, 4, 1};

/* interned attribute names */
static PyObject *s_nodes, *s_lanes, *s_tick, *s_outbox, *s_due, *s_mark, *s_visited,
    *s_parent_in, *s_rca_phase, *s_bca_phase, *s_active, *s_pred, *s_succ,
    *s_promote_next, *s_clear, *s_next_due, *s_max_due, *s_clock, *s_live;
static PyObject *zero;
/* bank -> register attribute: growing marks for 0/1/4, relays for 2/3/5 */
static PyObject *s_bank_attr[BANKS];

typedef struct {
    PyObject_HEAD
    /* engine containers, shared by reference */
    PyObject *processors;     /* list: node -> Processor */
    PyObject *chandlers;      /* list: node -> code-handler list or None */
    PyObject *emitted;        /* list: code -> emission count */
    PyObject *buckets;        /* dict: tick -> _Bucket */
    PyObject *ring;           /* list: free buckets */
    PyObject *ticks;          /* list: scheduled ticks, ascending */
    PyObject *bucket_type;    /* _Bucket */
    PyObject *deliver_object; /* (node, lane) -> None */
    PyObject *deliver_other;  /* (node, in_port, code) -> None */
    PyObject *drain;          /* (node) -> None */
    PyObject *drain_due;      /* (tick) -> None */
    PyObject *active;         /* ActiveSet: `_due` non-empty -> drain_due */
    PyObject *unwired;        /* (node, code, out_port) -> raises */
    PyObject *node_ints;      /* tuple: node -> int */
    PyObject *code_ints;      /* tuple: kernel code -> int */
    PyObject *growing;        /* list: interned code -> growing kind */
    Py_ssize_t growing_seen;  /* codes of `growing` checked for strays */
    int strays;               /* a growing code outside the kernel exists */
    /* kernel tables, borrowed from the shared CharKernel arrays */
    Py_buffer trans_buf, fill_buf, family_buf, flags_buf;
    const int64_t *trans, *fill, *family, *flags;
    const uint8_t *walkable;
    PyObject *walkable_obj;
    uint8_t *kill_banks;      /* code -> growing banks a KILL purges, or 0 */
    int64_t *body;            /* (bank, out_port) -> body code */
    Py_ssize_t kn, stride, nphase, delta, n;
    /* wiring of table-walked nodes, snapshotted at construction */
    int64_t *wdst, *wsh;      /* slot -> dst, in_port << PORT_SHIFT */
    Py_ssize_t *port_start;   /* CSR offsets into ports */
    int64_t *ports;           /* connected out-ports, ascending */
    uint8_t *walk;            /* node -> table-walked */
    /* shadow phases */
    int64_t *phase;           /* node * BANKS + bank */
    uint8_t *valid;           /* node -> phases current */
    /* per-walk cache of the arrival buckets at cache_offset, dropped after
       every call back into Python and every native purge that recycles a
       bucket */
    long long now;
    PyObject *cache_lanes[CACHED], *cache_nodes[CACHED];
    /* run counters (see counters()) */
    long long n_rows, n_escapes, n_other, n_object, n_kills, n_kill_escapes,
        n_purges, n_ticks, n_skipped;
} Stepper;

/* ------------------------------------------------------------------ */
/* helpers                                                             */
/* ------------------------------------------------------------------ */

static int
get_i64_buffer(PyObject *obj, Py_buffer *view, Py_ssize_t min_len, const char *what)
{
    if (PyObject_GetBuffer(obj, view, PyBUF_C_CONTIGUOUS | PyBUF_FORMAT) < 0)
        return -1;
    if (view->itemsize != 8 || view->format == NULL
        || (strcmp(view->format, "q") != 0 && strcmp(view->format, "l") != 0)
        || view->len / 8 < min_len) {
        PyBuffer_Release(view);
        view->obj = NULL;
        PyErr_Format(PyExc_ValueError, "%s: expected an int64 table of %zd items",
                     what, min_len);
        return -1;
    }
    return 0;
}

static int
copy_i64_seq(PyObject *seq, int64_t *out, Py_ssize_t len, const char *what)
{
    PyObject *fast = PySequence_Fast(seq, what);
    if (fast == NULL)
        return -1;
    if (PySequence_Fast_GET_SIZE(fast) != len) {
        Py_DECREF(fast);
        PyErr_Format(PyExc_ValueError, "%s: expected %zd items", what, len);
        return -1;
    }
    for (Py_ssize_t i = 0; i < len; i++) {
        long long v = PyLong_AsLongLong(PySequence_Fast_GET_ITEM(fast, i));
        if (v == -1 && PyErr_Occurred()) {
            Py_DECREF(fast);
            return -1;
        }
        out[i] = v;
    }
    Py_DECREF(fast);
    return 0;
}

static void
drop_cache(Stepper *s)
{
    for (int k = 0; k < CACHED; k++) {
        Py_CLEAR(s->cache_lanes[k]);
        Py_CLEAR(s->cache_nodes[k]);
    }
}

/* emitted[code] += by */
static int
bump(Stepper *s, Py_ssize_t code, long long by)
{
    PyObject *list = s->emitted;
    if (code < 0 || code >= PyList_GET_SIZE(list)) {
        PyErr_SetString(PyExc_IndexError, "emission counter out of range");
        return -1;
    }
    PyObject *old = PyList_GET_ITEM(list, code);
    long long v = PyLong_AsLongLong(old);
    if (v == -1 && PyErr_Occurred())
        return -1;
    PyObject *now = PyLong_FromLongLong(v + by);
    if (now == NULL)
        return -1;
    PyList_SET_ITEM(list, code, now);
    Py_DECREF(old);
    return 0;
}

/* The lanes/nodes of the bucket at now + cache_offset[k] (created from
   the ring, like PackedEventWheel.schedule, when absent) into cache k. */
static int
arrival_bucket(Stepper *s, int k)
{
    if (s->cache_lanes[k] != NULL)
        return 0;
    const long long arrival = s->now + cache_offset[k];
    PyObject *key = PyLong_FromLongLong(arrival);
    if (key == NULL)
        return -1;
    PyObject *bucket = PyDict_GetItemWithError(s->buckets, key);
    if (bucket != NULL) {
        Py_INCREF(bucket);
    }
    else {
        if (PyErr_Occurred())
            goto fail;
        Py_ssize_t free = PyList_GET_SIZE(s->ring);
        if (free > 0) {
            bucket = PyList_GET_ITEM(s->ring, free - 1);
            Py_INCREF(bucket);
            if (PyList_SetSlice(s->ring, free - 1, free, NULL) < 0) {
                Py_DECREF(bucket);
                goto fail;
            }
        }
        else {
            bucket = PyObject_CallNoArgs(s->bucket_type);
            if (bucket == NULL)
                goto fail;
        }
        if (PyDict_SetItem(s->buckets, key, bucket) < 0
            || PyList_Append(s->ticks, key) < 0) {
            Py_DECREF(bucket);
            goto fail;
        }
        Py_ssize_t nt = PyList_GET_SIZE(s->ticks);
        if (nt > 1) {
            long long prev = PyLong_AsLongLong(PyList_GET_ITEM(s->ticks, nt - 2));
            if (prev == -1 && PyErr_Occurred()) {
                Py_DECREF(bucket);
                goto fail;
            }
            if (arrival < prev && PyList_Sort(s->ticks) < 0) {
                Py_DECREF(bucket);
                goto fail;
            }
        }
    }
    Py_DECREF(key);
    s->cache_lanes[k] = PyObject_GetAttr(bucket, s_lanes);
    s->cache_nodes[k] = PyObject_GetAttr(bucket, s_nodes);
    Py_DECREF(bucket);
    if (s->cache_lanes[k] == NULL || s->cache_nodes[k] == NULL
        || !PyDict_Check(s->cache_lanes[k]) || !PyList_Check(s->cache_nodes[k])) {
        if (!PyErr_Occurred())
            PyErr_SetString(PyExc_TypeError, "malformed wheel bucket");
        drop_cache(s);
        return -1;
    }
    return 0;
fail:
    Py_DECREF(key);
    return -1;
}

/* Append `value` (base | shifted in-port) to dst's lane at arrival
   now + cache_offset[k], numbering it with the lane's FIFO sequence. */
static int
append_entry(Stepper *s, int k, Py_ssize_t dst, long long value)
{
    if (arrival_bucket(s, k) < 0)
        return -1;
    PyObject *lanes = s->cache_lanes[k];
    PyObject *dst_obj = PyTuple_GET_ITEM(s->node_ints, dst);
    PyObject *lane = PyDict_GetItemWithError(lanes, dst_obj);
    if (lane == NULL) {
        if (PyErr_Occurred())
            return -1;
        lane = PyList_New(0);
        if (lane == NULL)
            return -1;
        int rc = PyDict_SetItem(lanes, dst_obj, lane);
        Py_DECREF(lane);
        if (rc < 0 || PyList_Append(s->cache_nodes[k], dst_obj) < 0)
            return -1;
    }
    else if (!PyList_Check(lane)) {
        PyErr_SetString(PyExc_TypeError, "wheel lanes must be lists");
        return -1;
    }
    else if (PyList_GET_SIZE(lane) == 0) {
        if (PyList_Append(s->cache_nodes[k], dst_obj) < 0)
            return -1;
    }
    PyObject *entry = PyLong_FromLongLong(
        value | ((long long)PyList_GET_SIZE(lane) << SEQ_SHIFT));
    if (entry == NULL)
        return -1;
    int rc = PyList_Append(lane, entry);
    Py_DECREF(entry);
    return rc;
}

static inline long long
code_base(Stepper *s, int64_t code)
{
    return (((s->flags[code] >> KPRIO_SHIFT) & KPRIO_MASK) << PRIO_SHIFT) | code;
}

/* int(getattr(obj, name)) with None -> 0; truthiness when `truth` */
static int
attr_int(PyObject *obj, PyObject *name, int truth, long long *out)
{
    PyObject *v = PyObject_GetAttr(obj, name);
    if (v == NULL)
        return -1;
    if (truth) {
        int t = PyObject_IsTrue(v);
        Py_DECREF(v);
        if (t < 0)
            return -1;
        *out = t;
        return 0;
    }
    if (v == Py_None) {
        *out = 0;
    }
    else {
        *out = PyLong_AsLongLong(v);
        if (*out == -1 && PyErr_Occurred()) {
            Py_DECREF(v);
            return -1;
        }
    }
    Py_DECREF(v);
    return 0;
}

/* Re-derive one node's six bank phases from its protocol registers.
   Growing banks: 0 unvisited, 1 + parent_in visited, delta + 2 when an
   RCA (OG bank) or BCA (BG bank) candidacy intercepts the family.
   Dying banks: an active relay's (pred, succ, promote) phase, else 0. */
static int
sync_node(Stepper *s, Py_ssize_t node, PyObject *proc)
{
    int64_t *phase = s->phase + node * BANKS;
    const long long delta = s->delta;
    for (int bank = 0; bank < BANKS; bank++) {
        PyObject *reg = PyObject_GetAttr(proc, s_bank_attr[bank]);
        if (reg == NULL)
            return -1;
        long long a, b, c, d;
        if (bank == 0 || bank == 1 || bank == 4) {
            if (bank != 0) {
                if (attr_int(proc, bank == 1 ? s_rca_phase : s_bca_phase, 1, &a) < 0)
                    goto fail;
                if (a) {
                    phase[bank] = delta + 2;
                    Py_DECREF(reg);
                    continue;
                }
            }
            if (attr_int(reg, s_visited, 1, &a) < 0
                || attr_int(reg, s_parent_in, 0, &b) < 0)
                goto fail;
            phase[bank] = a ? 1 + b : 0;
        }
        else {
            PyObject *pred, *succ;
            if (attr_int(reg, s_active, 1, &a) < 0)
                goto fail;
            phase[bank] = 0;
            if (a) {
                pred = PyObject_GetAttr(reg, s_pred);
                succ = pred ? PyObject_GetAttr(reg, s_succ) : NULL;
                int both = pred && succ && pred != Py_None && succ != Py_None;
                if (both) {
                    b = PyLong_AsLongLong(pred);
                    c = PyLong_AsLongLong(succ);
                }
                Py_XDECREF(pred);
                Py_XDECREF(succ);
                if (PyErr_Occurred())
                    goto fail;
                if (both) {
                    if (attr_int(reg, s_promote_next, 1, &d) < 0)
                        goto fail;
                    phase[bank] = 1 + ((b - 1) * delta + (c - 1)) * 2 + d;
                }
            }
        }
        Py_DECREF(reg);
        if (phase[bank] < 0 || phase[bank] >= s->nphase) {
            PyErr_Format(PyExc_ValueError, "node %zd: bank %d phase out of range",
                         node, bank);
            return -1;
        }
        continue;
    fail:
        Py_DECREF(reg);
        return -1;
    }
    s->valid[node] = 1;
    return 0;
}

/* Execute one positive transition row at a walked node. */
static int
emit_row(Stepper *s, Py_ssize_t node, PyObject *proc, int bank,
         long long in_port, long long row)
{
    const int op = (int)(row & OP_MASK);
    const int64_t fc = row >> ROW_CODE_SHIFT;
    const Py_ssize_t slot0 = node * s->stride;
    const Py_ssize_t p0 = s->port_start[node], p1 = s->port_start[node + 1];
    int k = 0;
    if (op == OP_SEND) {
        /* dying body pass-through: one entry on the relay's succ wire */
        long long port = (row >> ROW_PORT_SHIFT) & ROW_PORT_MASK;
        Py_ssize_t slot = slot0 + port;
        if (port > s->delta || s->wdst[slot] < 0) {
            PyObject *r = PyObject_CallFunction(s->unwired, "nLL", node,
                                                (long long)fc, port);
            Py_XDECREF(r);
            if (!PyErr_Occurred())
                PyErr_SetString(PyExc_RuntimeError, "unwired emission");
            return -1;
        }
        if (bump(s, fc, 1) < 0)
            return -1;
        return append_entry(s, 0, s->wdst[slot], code_base(s, fc) | s->wsh[slot]);
    }
    if (op == OP_TAIL) {
        /* tail relay: one body per out-port now, the tail a tick later */
        const int64_t *bodies = s->body + bank * (s->delta + 1);
        for (Py_ssize_t i = p0; i < p1; i++) {
            Py_ssize_t slot = slot0 + s->ports[i];
            int64_t bc = bodies[s->ports[i]];
            if (bump(s, bc, 1) < 0
                || append_entry(s, 0, s->wdst[slot], code_base(s, bc) | s->wsh[slot]) < 0)
                return -1;
        }
        k = 1;
    }
    else if (op == OP_MARK) {
        /* first head at an unvisited node: the one register the tables own */
        s->phase[node * BANKS + bank] = (row >> ROW_PHASE_SHIFT) & ROW_PHASE_MASK;
        PyObject *marks = PyObject_GetAttr(proc, s_bank_attr[bank]);
        if (marks == NULL)
            return -1;
        PyObject *port_obj = PyLong_FromLongLong(in_port);
        PyObject *r = port_obj ? PyObject_CallMethodOneArg(marks, s_mark, port_obj) : NULL;
        Py_XDECREF(port_obj);
        Py_DECREF(marks);
        if (r == NULL)
            return -1;
        Py_DECREF(r);
    }
    else if (op != OP_BCAST) {
        PyErr_Format(PyExc_ValueError, "unknown transition op %d", op);
        return -1;
    }
    if (bump(s, fc, p1 - p0) < 0)
        return -1;
    const long long base = code_base(s, fc);
    for (Py_ssize_t i = p0; i < p1; i++) {
        Py_ssize_t slot = slot0 + s->ports[i];
        if (append_entry(s, k, s->wdst[slot], base | s->wsh[slot]) < 0)
            return -1;
    }
    return 0;
}

static inline int
purgeable(const Stepper *s, long long packed, long long shifted_in, unsigned banks)
{
    const long long code = packed & CODE_MASK;
    return code < s->kn && (s->flags[code] & KFLAG_GROWING)
           && (packed & ((long long)PORT_MASK << PORT_SHIFT)) == shifted_in
           && ((banks >> s->family[code]) & 1);
}

/* Erase one lane's purgeable entries: growing codes of the `banks`
   families that arrived through `shifted_in` (the wire identifies the
   sender).  When anything goes, every survivor is renumbered densely and
   the emission counters are rolled back.  Returns the number erased. */
static Py_ssize_t
purge_lane(Stepper *s, PyObject *lane, long long shifted_in, unsigned banks)
{
    const Py_ssize_t len = PyList_GET_SIZE(lane);
    Py_ssize_t j = 0;
    for (; j < len; j++) {
        long long packed = PyLong_AsLongLong(PyList_GET_ITEM(lane, j));
        if (packed == -1 && PyErr_Occurred())
            return -1;
        if (purgeable(s, packed, shifted_in, banks))
            break;
    }
    if (j == len)
        return 0;
    PyObject *kept = PyList_New(0);
    if (kept == NULL)
        return -1;
    for (j = 0; j < len; j++) {
        long long packed = PyLong_AsLongLong(PyList_GET_ITEM(lane, j));
        if (packed == -1 && PyErr_Occurred())
            goto error;
        if (purgeable(s, packed, shifted_in, banks)) {
            if (bump(s, packed & CODE_MASK, -1) < 0)
                goto error;
            continue;
        }
        PyObject *v = PyLong_FromLongLong(
            (packed & ~SEQ_FIELD) | ((long long)PyList_GET_SIZE(kept) << SEQ_SHIFT));
        if (v == NULL || PyList_Append(kept, v) < 0) {
            Py_XDECREF(v);
            goto error;
        }
        Py_DECREF(v);
    }
    Py_ssize_t erased = len - PyList_GET_SIZE(kept);
    int rc = PyList_SetSlice(lane, 0, len, kept);
    Py_DECREF(kept);
    return rc < 0 ? -1 : erased;
error:
    Py_DECREF(kept);
    return -1;
}

/* The engine's purge hook for `node`, natively: every future bucket (in
   wheel order), every out-wire of the node in port order.  A lane left
   empty drops its node from the bucket's list; a bucket left empty is
   unregistered and returned to the ring (its stale tick stays in `ticks`,
   as with the hook).  Returns the number erased, or -1. */
static Py_ssize_t
purge_node(Stepper *s, Py_ssize_t node, unsigned banks)
{
    PyObject *items = PyDict_Items(s->buckets);
    if (items == NULL)
        return -1;
    const Py_ssize_t slot0 = node * s->stride;
    const Py_ssize_t p0 = s->port_start[node], p1 = s->port_start[node + 1];
    Py_ssize_t removed = 0;
    int recycled = 0;
    for (Py_ssize_t b = 0; b < PyList_GET_SIZE(items); b++) {
        PyObject *item = PyList_GET_ITEM(items, b);
        PyObject *key = PyTuple_GET_ITEM(item, 0), *bucket = PyTuple_GET_ITEM(item, 1);
        long long arrival = PyLong_AsLongLong(key);
        if (arrival == -1 && PyErr_Occurred())
            goto error;
        if (arrival <= s->now)
            continue;  /* already departed under outbox semantics */
        PyObject *nodes = PyObject_GetAttr(bucket, s_nodes);
        PyObject *lanes = nodes ? PyObject_GetAttr(bucket, s_lanes) : NULL;
        if (lanes == NULL || !PyList_Check(nodes) || !PyDict_Check(lanes)) {
            if (!PyErr_Occurred())
                PyErr_SetString(PyExc_TypeError, "malformed wheel bucket");
            Py_XDECREF(nodes);
            Py_XDECREF(lanes);
            goto error;
        }
        int rc = 0;
        for (Py_ssize_t i = p0; i < p1 && rc == 0; i++) {
            Py_ssize_t slot = slot0 + s->ports[i];
            PyObject *dst_obj = PyTuple_GET_ITEM(s->node_ints, s->wdst[slot]);
            PyObject *lane = PyDict_GetItemWithError(lanes, dst_obj);
            if (lane == NULL) {
                rc = PyErr_Occurred() ? -1 : 0;
                continue;
            }
            if (!PyList_Check(lane)) {
                PyErr_SetString(PyExc_TypeError, "wheel lanes must be lists");
                rc = -1;
                break;
            }
            if (PyList_GET_SIZE(lane) == 0)
                continue;
            Py_ssize_t erased = purge_lane(s, lane, s->wsh[slot], banks);
            if (erased < 0) {
                rc = -1;
                break;
            }
            removed += erased;
            if (erased && PyList_GET_SIZE(lane) == 0) {
                /* "listed once <=> lane non-empty": bucket.nodes.remove(dst) */
                Py_ssize_t at = PySequence_Index(nodes, dst_obj);
                if (at < 0 || PyList_SetSlice(nodes, at, at + 1, NULL) < 0)
                    rc = -1;
            }
        }
        if (rc == 0 && PyList_GET_SIZE(nodes) == 0) {
            /* an empty registered bucket would keep the engine busy one
               tick past the object backend */
            if (PyDict_DelItem(s->buckets, key) < 0 || PyList_Append(s->ring, bucket) < 0)
                rc = -1;
            recycled = 1;
        }
        Py_DECREF(nodes);
        Py_DECREF(lanes);
        if (rc < 0)
            goto error;
    }
    Py_DECREF(items);
    if (recycled)
        drop_cache(s);
    return removed;
error:
    Py_DECREF(items);
    drop_cache(s);
    return -1;
}

/* Whether a growing character outside the kernel has been interned (a
   test double, a nonstandard payload): the family mask cannot judge it,
   so from then on every KILL takes its handler.  Other codes past the
   kernel (a BCA message's tail) are never purgeable and change nothing. */
static int
growing_strays(Stepper *s)
{
    const Py_ssize_t n = PyList_GET_SIZE(s->growing);
    for (; s->growing_seen < n && !s->strays; s->growing_seen++) {
        int t = PyObject_IsTrue(PyList_GET_ITEM(s->growing, s->growing_seen));
        if (t < 0)
            return -1;
        s->strays = t;
    }
    return s->strays;
}

/* A KILL at a walked node: the node's c_kill_* handler, natively.
   Returns 1 when served, 0 when the delivery must escape, -1 on error. */
static int
native_kill(Stepper *s, Py_ssize_t node, PyObject *proc, PyObject *ctable,
            unsigned banks, long long code)
{
    if (code >= PyList_GET_SIZE(ctable) || PyList_GET_ITEM(ctable, code) == Py_None)
        return 0;
    int strays = growing_strays(s);
    if (strays)
        return strays < 0 ? -1 : 0;
    PyObject *outbox = PyObject_GetAttr(proc, s_outbox);
    int resting = outbox ? PyObject_IsTrue(outbox) : -1;
    Py_XDECREF(outbox);
    if (resting)
        return resting < 0 ? -1 : 0;
    if (!s->valid[node] && sync_node(s, node, proc) < 0)
        return -1;
    int64_t *phase = s->phase + node * BANKS;
    const int64_t intercepted = s->delta + 2;
    int visited = 0;
    for (int bank = 0; bank < BANKS; bank++) {
        if (!((banks >> bank) & 1))
            continue;
        if (phase[bank] != intercepted) {
            visited |= phase[bank] != 0;
            continue;
        }
        /* an RCA/BCA candidacy hides the marks from the phase */
        long long v;
        PyObject *marks = PyObject_GetAttr(proc, s_bank_attr[bank]);
        int rc = marks ? attr_int(marks, s_visited, 1, &v) : -1;
        Py_XDECREF(marks);
        if (rc < 0)
            return -1;
        visited |= (int)v;
    }
    Py_ssize_t purged = purge_node(s, node, banks);
    if (purged < 0)
        return -1;
    if (purged)
        s->n_purges++;
    /* purge_outbox over an empty outbox */
    if (PyObject_SetAttr(proc, s_next_due, Py_None) < 0
        || PyObject_SetAttr(proc, s_max_due, zero) < 0)
        return -1;
    s->n_kills++;
    if (!purged && !visited)
        return 1;  /* no growing traces here: absorbed */
    for (int bank = 0; bank < BANKS; bank++) {
        if (!((banks >> bank) & 1))
            continue;
        if (phase[bank] != intercepted)
            phase[bank] = 0;
        PyObject *marks = PyObject_GetAttr(proc, s_bank_attr[bank]);
        PyObject *r = marks ? PyObject_CallMethodNoArgs(marks, s_clear) : NULL;
        Py_XDECREF(marks);
        if (r == NULL)
            return -1;
        Py_DECREF(r);
    }
    /* the broadcast at tick+1 (its bucket is registered even without a
       port, as the code broadcast does) */
    const Py_ssize_t slot0 = node * s->stride;
    const Py_ssize_t p0 = s->port_start[node], p1 = s->port_start[node + 1];
    if (arrival_bucket(s, 2) < 0 || bump(s, code, p1 - p0) < 0)
        return -1;
    const long long base = code_base(s, code);
    for (Py_ssize_t i = p0; i < p1; i++) {
        Py_ssize_t slot = slot0 + s->ports[i];
        if (append_entry(s, 2, s->wdst[slot], base | s->wsh[slot]) < 0)
            return -1;
    }
    return 1;
}

/* An escape: the node's code handler, or the engine's object path. */
static int
escape(Stepper *s, PyObject *node_obj, PyObject *ctable, long long in_port,
       long long code)
{
    PyObject *port_obj = PyLong_FromLongLong(in_port);
    if (port_obj == NULL)
        return -1;
    PyObject *r;
    PyObject *h = (code < s->kn && code < PyList_GET_SIZE(ctable))
                      ? PyList_GET_ITEM(ctable, code) : Py_None;
    s->n_escapes++;
    if (h != Py_None) {
        PyObject *args[2] = {port_obj, PyTuple_GET_ITEM(s->code_ints, code)};
        Py_INCREF(h);
        r = PyObject_Vectorcall(h, args, 2, NULL);
        Py_DECREF(h);
    }
    else {
        s->n_other++;
        PyObject *code_obj = PyLong_FromLongLong(code);
        if (code_obj == NULL) {
            Py_DECREF(port_obj);
            return -1;
        }
        PyObject *args[3] = {node_obj, port_obj, code_obj};
        r = PyObject_Vectorcall(s->deliver_other, args, 3, NULL);
        Py_DECREF(code_obj);
    }
    Py_DECREF(port_obj);
    drop_cache(s);
    if (r == NULL)
        return -1;
    Py_DECREF(r);
    return 0;
}

/* One node's sorted lane through its code-handler table. */
static int
walk_node(Stepper *s, Py_ssize_t node, PyObject *node_obj, PyObject *lane,
          PyObject *ctable, PyObject *proc)
{
    const int walked = s->walk[node];
    int64_t *phase = s->phase + node * BANKS;
    for (Py_ssize_t j = 0; j < PyList_GET_SIZE(lane); j++) {
        long long packed = PyLong_AsLongLong(PyList_GET_ITEM(lane, j));
        if (packed == -1 && PyErr_Occurred())
            return -1;
        long long code = packed & CODE_MASK;
        long long in_port = (packed >> PORT_SHIFT) & PORT_MASK;
        if (code < s->kn && in_port <= s->delta) {
            if (walked && s->kill_banks[code]) {
                int served = native_kill(s, node, proc, ctable, s->kill_banks[code], code);
                if (served < 0)
                    return -1;
                if (served)
                    continue;
                s->n_kill_escapes++;
            }
            if (walked && s->walkable[code]) {
                if (!s->valid[node] && sync_node(s, node, proc) < 0)
                    return -1;
                int bank = s->family[code] >= 0 ? (int)s->family[code] : 0;
                long long row = s->trans[(code * s->stride + in_port) * s->nphase
                                         + phase[bank]];
                if (row >= 0)
                    s->n_rows++;
                if (row == 0)
                    continue;
                if (row > 0) {
                    if (emit_row(s, node, proc, bank, in_port, row) < 0)
                        return -1;
                    continue;
                }
                code = -row - 1;
            }
            else {
                code = s->fill[code * s->stride + in_port];
            }
        }
        if (escape(s, node_obj, ctable, in_port, code) < 0)
            return -1;
        s->valid[node] = 0;
    }
    return 0;
}

/* ------------------------------------------------------------------ */
/* the type                                                            */
/* ------------------------------------------------------------------ */

/* Deliver one popped bucket, node by node in first-touch order. */
static int
walk_bucket(Stepper *s, PyObject *bucket, PyObject *tick_obj)
{
    long long tick = PyLong_AsLongLong(tick_obj);
    if (tick == -1 && PyErr_Occurred())
        return -1;
    PyObject *nodes = PyObject_GetAttr(bucket, s_nodes);
    PyObject *lanes = nodes ? PyObject_GetAttr(bucket, s_lanes) : NULL;
    if (lanes == NULL || !PyList_Check(nodes) || !PyDict_Check(lanes)) {
        if (!PyErr_Occurred())
            PyErr_SetString(PyExc_TypeError, "malformed wheel bucket");
        Py_XDECREF(nodes);
        Py_XDECREF(lanes);
        return -1;
    }
    s->now = tick;
    drop_cache(s);
    PyObject *node_obj = NULL, *lane = NULL, *ctable = NULL, *proc = NULL;
    for (Py_ssize_t i = 0; i < PyList_GET_SIZE(nodes); i++) {
        node_obj = PyList_GET_ITEM(nodes, i);
        Py_INCREF(node_obj);
        Py_ssize_t node = PyLong_AsSsize_t(node_obj);
        if (node < 0 || node >= s->n) {
            if (!PyErr_Occurred())
                PyErr_SetString(PyExc_IndexError, "node out of range");
            goto error;
        }
        lane = PyDict_GetItemWithError(lanes, node_obj);
        if (lane == NULL || !PyList_Check(lane)) {
            if (!PyErr_Occurred())
                PyErr_SetString(PyExc_TypeError, "wheel lanes must be lists");
            lane = NULL;
            goto error;
        }
        Py_INCREF(lane);
        if (PyList_GET_SIZE(lane) > 1 && PyList_Sort(lane) < 0)
            goto error;
        ctable = PyList_GET_ITEM(s->chandlers, node);
        Py_INCREF(ctable);
        if (ctable == Py_None || !PyList_Check(ctable)) {
            PyObject *cargs[2] = {node_obj, lane};
            s->n_object++;
            PyObject *r = PyObject_Vectorcall(s->deliver_object, cargs, 2, NULL);
            drop_cache(s);
            s->valid[node] = 0;
            if (r == NULL)
                goto error;
            Py_DECREF(r);
        }
        else {
            proc = PyList_GET_ITEM(s->processors, node);
            Py_INCREF(proc);
            /* Processor.begin_tick, inlined as on the closure path */
            if (PyObject_SetAttr(proc, s_tick, tick_obj) < 0
                || walk_node(s, node, node_obj, lane, ctable, proc) < 0)
                goto error;
            Py_CLEAR(proc);
        }
        Py_CLEAR(ctable);
        Py_CLEAR(lane);
        Py_CLEAR(node_obj);
    }
    drop_cache(s);
    Py_DECREF(nodes);
    Py_DECREF(lanes);
    return 0;
error:
    drop_cache(s);
    Py_XDECREF(proc);
    Py_XDECREF(ctable);
    Py_XDECREF(lane);
    Py_XDECREF(node_obj);
    Py_DECREF(nodes);
    Py_DECREF(lanes);
    return -1;
}

/* The end-of-tick sweep: drain each delivered node that holds queued
   output, empty its lane, and return the bucket to the free ring
   (drains schedule at tick+1, never into this bucket). */
static int
sweep_bucket(Stepper *s, PyObject *bucket)
{
    PyObject *nodes = PyObject_GetAttr(bucket, s_nodes);
    PyObject *lanes = nodes ? PyObject_GetAttr(bucket, s_lanes) : NULL;
    if (lanes == NULL || !PyList_Check(nodes) || !PyDict_Check(lanes)) {
        if (!PyErr_Occurred())
            PyErr_SetString(PyExc_TypeError, "malformed wheel bucket");
        goto error;
    }
    for (Py_ssize_t i = 0; i < PyList_GET_SIZE(nodes); i++) {
        PyObject *node_obj = PyList_GET_ITEM(nodes, i);
        Py_ssize_t node = PyLong_AsSsize_t(node_obj);
        if (node < 0 || node >= s->n) {
            if (!PyErr_Occurred())
                PyErr_SetString(PyExc_IndexError, "node out of range");
            goto error;
        }
        PyObject *outbox = PyObject_GetAttr(PyList_GET_ITEM(s->processors, node), s_outbox);
        int queued = outbox ? PyObject_IsTrue(outbox) : -1;
        Py_XDECREF(outbox);
        if (queued < 0)
            goto error;
        Py_INCREF(node_obj);
        if (queued) {
            PyObject *r = PyObject_CallOneArg(s->drain, node_obj);
            Py_XDECREF(r);
            if (r == NULL) {
                Py_DECREF(node_obj);
                goto error;
            }
        }
        PyObject *lane = PyDict_GetItemWithError(lanes, node_obj);
        Py_DECREF(node_obj);
        if (lane == NULL) {
            if (PyErr_Occurred())
                goto error;
        }
        else if (PyList_SetSlice(lane, 0, PyList_GET_SIZE(lane), NULL) < 0) {
            goto error;
        }
    }
    if (PyList_SetSlice(nodes, 0, PyList_GET_SIZE(nodes), NULL) < 0
        || PyList_Append(s->ring, bucket) < 0)
        goto error;
    Py_DECREF(nodes);
    Py_DECREF(lanes);
    return 0;
error:
    Py_XDECREF(nodes);
    Py_XDECREF(lanes);
    return -1;
}

/* One whole tick of FlatEngine.step_tick once the clock has advanced —
   pop the bucket, walk it, drain the nodes whose queued output falls due,
   sweep the bucket. */
static int
step_tick(Stepper *s, PyObject *tick_obj)
{
    PyObject *bucket = PyDict_GetItemWithError(s->buckets, tick_obj);
    if (bucket == NULL && PyErr_Occurred())
        return -1;
    if (bucket != NULL) {
        Py_INCREF(bucket);
        if (PyDict_DelItem(s->buckets, tick_obj) < 0
            || walk_bucket(s, bucket, tick_obj) < 0)
            goto error;
    }
    PyObject *due = PyObject_GetAttr(s->active, s_due);
    int pending = due ? PyObject_IsTrue(due) : -1;
    Py_XDECREF(due);
    if (pending < 0)
        goto error;
    if (pending) {
        PyObject *r = PyObject_CallOneArg(s->drain_due, tick_obj);
        Py_XDECREF(r);
        if (r == NULL)
            goto error;
    }
    if (bucket != NULL) {
        int rc = sweep_bucket(s, bucket);
        Py_DECREF(bucket);
        return rc;
    }
    return 0;
error:
    Py_XDECREF(bucket);
    return -1;
}

static PyObject *
Stepper_step(Stepper *s, PyObject *tick_obj)
{
    if (step_tick(s, tick_obj) < 0)
        return NULL;
    Py_RETURN_NONE;
}

/* The earliest tick anything can happen at, as FlatEngine._next_event_tick
   computes it: drop the stale heads of the wheel's `_ticks` (ticks whose
   bucket is gone), then take the minimum of its head and the ActiveSet's
   `_due` heap head.  -1 when neither holds anything. */
static int
next_event(Stepper *s, long long *out)
{
    PyObject *ticks = s->ticks;
    Py_ssize_t stale = 0, nt = PyList_GET_SIZE(ticks);
    while (stale < nt) {
        int held = PyDict_Contains(s->buckets, PyList_GET_ITEM(ticks, stale));
        if (held < 0)
            return -1;
        if (held)
            break;
        stale++;
    }
    if (stale > 0 && PyList_SetSlice(ticks, 0, stale, NULL) < 0)
        return -1;
    long long nxt = -1;
    if (PyList_GET_SIZE(ticks) > 0) {
        nxt = PyLong_AsLongLong(PyList_GET_ITEM(ticks, 0));
        if (nxt == -1 && PyErr_Occurred())
            return -1;
    }
    /* read per call: ActiveSet._compact rebinds the heap */
    PyObject *due = PyObject_GetAttr(s->active, s_due);
    if (due == NULL)
        return -1;
    if (!PyList_Check(due)) {
        Py_DECREF(due);
        PyErr_SetString(PyExc_TypeError, "ActiveSet._due must be a list");
        return -1;
    }
    if (PyList_GET_SIZE(due) > 0) {
        PyObject *head = PyList_GET_ITEM(due, 0);
        long long due_tick = -1;
        if (PyTuple_Check(head) && PyTuple_GET_SIZE(head) > 0)
            due_tick = PyLong_AsLongLong(PyTuple_GET_ITEM(head, 0));
        else
            PyErr_SetString(PyExc_TypeError, "ActiveSet._due holds (tick, node) pairs");
        if (due_tick == -1 && PyErr_Occurred()) {
            Py_DECREF(due);
            return -1;
        }
        if (nxt < 0 || due_tick < nxt)
            nxt = due_tick;
    }
    Py_DECREF(due);
    *out = nxt;
    return 0;
}

/* engine.tick = tick; the new int is handed back in *out when asked for */
static int
set_clock(PyObject *engine, long long tick, PyObject **out)
{
    PyObject *tick_obj = PyLong_FromLongLong(tick);
    if (tick_obj == NULL)
        return -1;
    if (PyObject_SetAttr(engine, s_clock, tick_obj) < 0) {
        Py_DECREF(tick_obj);
        return -1;
    }
    if (out != NULL)
        *out = tick_obj;
    else
        Py_DECREF(tick_obj);
    return 0;
}

/* Stepper.run(engine, max_ticks, until, stop, drain): the loop of
   Engine.run (drain false) or Engine.run_to_idle (drain true, `until`
   None) over this stepper, in the same order of checks — see the header.
   Returns True when `until()` (or idleness) held, False when the clock
   reached `max_ticks` first (the caller makes the final `until()` check
   and raises the budget error), None right after stepping the `stop`
   tick. */
static PyObject *
Stepper_run(Stepper *s, PyObject *const *args, Py_ssize_t nargs)
{
    if (nargs != 5) {
        PyErr_SetString(PyExc_TypeError,
                        "run(engine, max_ticks, until, stop, drain) takes 5 arguments");
        return NULL;
    }
    PyObject *engine = args[0], *until = args[2] == Py_None ? NULL : args[2];
    long long max_ticks = PyLong_AsLongLong(args[1]), stop = -1, tick;
    if (max_ticks == -1 && PyErr_Occurred())
        return NULL;
    if (args[3] != Py_None) {
        stop = PyLong_AsLongLong(args[3]);
        if (stop == -1 && PyErr_Occurred())
            return NULL;
    }
    int drain = PyObject_IsTrue(args[4]);
    if (drain < 0 || attr_int(engine, s_clock, 0, &tick) < 0)
        return NULL;
    /* cleared in place on reset, never rebound */
    PyObject *live = PyObject_GetAttr(s->active, s_live);
    if (live == NULL)
        return NULL;
    if (!PyAnySet_Check(live)) {
        Py_DECREF(live);
        PyErr_SetString(PyExc_TypeError, "ActiveSet.live must be a set");
        return NULL;
    }
    PyObject *result = NULL;
    for (;;) {
        if (tick >= max_ticks) {
            result = Py_False;
            break;
        }
        if (until != NULL) {
            PyObject *r = PyObject_CallNoArgs(until);
            int held = r ? PyObject_IsTrue(r) : -1;
            Py_XDECREF(r);
            if (held < 0)
                goto done;
            if (held) {
                result = Py_True;
                break;
            }
        }
        else if (PySet_GET_SIZE(live) == 0 && PyDict_GET_SIZE(s->buckets) == 0
                 && (drain || tick > 0)) {
            result = Py_True;
            break;
        }
        long long nxt;
        if (next_event(s, &nxt) < 0)
            goto done;
        if (stop >= 0 && (nxt < 0 || stop < nxt))
            nxt = stop;
        if (nxt < 0) {
            /* dead network: under a just-false `until` nothing can ever
               flip it, so burn the budget in one jump; otherwise advance
               one tick, as Engine._advance does */
            long long to = until != NULL ? max_ticks : tick + 1;
            s->n_skipped += to - tick;
            tick = to;
            if (set_clock(engine, tick, NULL) < 0)
                goto done;
            if (until != NULL) {
                result = Py_False;
                break;
            }
        }
        else {
            /* fast-forward over provably empty ticks, never past max_ticks */
            if (nxt > tick + 1) {
                long long to = (nxt < max_ticks ? nxt : max_ticks) - 1;
                s->n_skipped += to - tick;
                tick = to;
            }
            tick++;
            PyObject *tick_obj;
            if (set_clock(engine, tick, &tick_obj) < 0)
                goto done;
            int rc = step_tick(s, tick_obj);
            Py_DECREF(tick_obj);
            if (rc < 0)
                goto done;
            s->n_ticks++;
            if (stop >= 0 && tick >= stop) {
                result = Py_None;
                break;
            }
        }
        if (PyErr_CheckSignals() < 0)
            goto done;
    }
    Py_INCREF(result);
done:
    Py_DECREF(live);
    return result;
}

static PyObject *
Stepper_reset(Stepper *s, PyObject *Py_UNUSED(ignored))
{
    memset(s->phase, 0, sizeof(int64_t) * BANKS * s->n);
    memset(s->valid, 1, s->n);
    s->n_rows = s->n_escapes = s->n_other = s->n_object = 0;
    s->n_kills = s->n_kill_escapes = s->n_purges = 0;
    s->n_ticks = s->n_skipped = 0;
    Py_RETURN_NONE;
}

static PyObject *
Stepper_counters(Stepper *s, PyObject *Py_UNUSED(ignored))
{
    return Py_BuildValue("{sLsLsLsLsLsLsLsLsL}", "rows", s->n_rows, "escapes",
                         s->n_escapes, "deliver_other", s->n_other, "object_lanes",
                         s->n_object, "kills", s->n_kills, "kill_escapes",
                         s->n_kill_escapes, "purges", s->n_purges, "ticks", s->n_ticks,
                         "skipped", s->n_skipped);
}

static PyObject *
Stepper_invalidate(Stepper *s, PyObject *const *args, Py_ssize_t nargs)
{
    if (nargs == 0) {
        memset(s->valid, 0, s->n);
        Py_RETURN_NONE;
    }
    Py_ssize_t node = PyLong_AsSsize_t(args[0]);
    if (node < 0 || node >= s->n) {
        if (!PyErr_Occurred())
            PyErr_SetString(PyExc_IndexError, "node out of range");
        return NULL;
    }
    s->valid[node] = 0;
    Py_RETURN_NONE;
}

static PyObject *
Stepper_phases(Stepper *s, PyObject *arg)
{
    Py_ssize_t node = PyLong_AsSsize_t(arg);
    if (node < 0 || node >= s->n) {
        if (!PyErr_Occurred())
            PyErr_SetString(PyExc_IndexError, "node out of range");
        return NULL;
    }
    if (!s->valid[node]
        && sync_node(s, node, PyList_GET_ITEM(s->processors, node)) < 0)
        return NULL;
    const int64_t *p = s->phase + node * BANKS;
    return Py_BuildValue("(LLLLLL)", (long long)p[0], (long long)p[1], (long long)p[2],
                         (long long)p[3], (long long)p[4], (long long)p[5]);
}

static int
Stepper_traverse(Stepper *s, visitproc visit, void *arg)
{
    Py_VISIT(s->processors);
    Py_VISIT(s->chandlers);
    Py_VISIT(s->emitted);
    Py_VISIT(s->buckets);
    Py_VISIT(s->ring);
    Py_VISIT(s->ticks);
    Py_VISIT(s->bucket_type);
    Py_VISIT(s->deliver_object);
    Py_VISIT(s->deliver_other);
    Py_VISIT(s->drain);
    Py_VISIT(s->drain_due);
    Py_VISIT(s->active);
    Py_VISIT(s->unwired);
    Py_VISIT(s->walkable_obj);
    Py_VISIT(s->growing);
    for (int k = 0; k < CACHED; k++) {
        Py_VISIT(s->cache_lanes[k]);
        Py_VISIT(s->cache_nodes[k]);
    }
    return 0;
}

static int
Stepper_clear(Stepper *s)
{
    Py_CLEAR(s->processors);
    Py_CLEAR(s->chandlers);
    Py_CLEAR(s->emitted);
    Py_CLEAR(s->buckets);
    Py_CLEAR(s->ring);
    Py_CLEAR(s->ticks);
    Py_CLEAR(s->bucket_type);
    Py_CLEAR(s->deliver_object);
    Py_CLEAR(s->deliver_other);
    Py_CLEAR(s->drain);
    Py_CLEAR(s->drain_due);
    Py_CLEAR(s->active);
    Py_CLEAR(s->unwired);
    Py_CLEAR(s->growing);
    drop_cache(s);
    return 0;
}

static void
Stepper_dealloc(Stepper *s)
{
    PyObject_GC_UnTrack(s);
    Stepper_clear(s);
    Py_CLEAR(s->node_ints);
    Py_CLEAR(s->code_ints);
    Py_CLEAR(s->walkable_obj);
    Py_buffer *bufs[4] = {&s->trans_buf, &s->fill_buf, &s->family_buf, &s->flags_buf};
    for (int i = 0; i < 4; i++)
        if (bufs[i]->obj != NULL)
            PyBuffer_Release(bufs[i]);
    PyMem_Free(s->body);
    PyMem_Free(s->kill_banks);
    PyMem_Free(s->wdst);
    PyMem_Free(s->wsh);
    PyMem_Free(s->port_start);
    PyMem_Free(s->ports);
    PyMem_Free(s->walk);
    PyMem_Free(s->phase);
    PyMem_Free(s->valid);
    Py_TYPE(s)->tp_free((PyObject *)s);
}

static PyObject *
int_tuple(Py_ssize_t n)
{
    PyObject *t = PyTuple_New(n);
    if (t == NULL)
        return NULL;
    for (Py_ssize_t i = 0; i < n; i++) {
        PyObject *v = PyLong_FromSsize_t(i);
        if (v == NULL) {
            Py_DECREF(t);
            return NULL;
        }
        PyTuple_SET_ITEM(t, i, v);
    }
    return t;
}

static const char *stepper_kwlist[] = {
    "processors", "chandlers", "walk", "kernel", "wire_dst", "in_shift",
    "out_start", "out_ports", "emitted", "buckets", "ring", "ticks",
    "bucket_type", "deliver_object", "deliver_other", "drain", "drain_due",
    "active", "unwired", "growing", NULL,
};

static PyObject *
Stepper_new(PyTypeObject *type, PyObject *args, PyObject *kwds)
{
    PyObject *processors, *chandlers, *walk, *kernel, *wire_dst, *in_shift,
        *out_start, *out_ports, *emitted, *buckets, *ring, *ticks, *bucket_type,
        *deliver_object, *deliver_other, *drain, *drain_due, *active, *unwired, *growing;
    if (!PyArg_ParseTupleAndKeywords(
            args, kwds, "O!O!OOOOOOO!O!O!O!OOOOOOOO!", (char **)stepper_kwlist,
            &PyList_Type, &processors, &PyList_Type, &chandlers, &walk, &kernel,
            &wire_dst, &in_shift, &out_start, &out_ports, &PyList_Type, &emitted,
            &PyDict_Type, &buckets, &PyList_Type, &ring, &PyList_Type, &ticks,
            &bucket_type, &deliver_object, &deliver_other, &drain, &drain_due,
            &active, &unwired, &PyList_Type, &growing))
        return NULL;
    Stepper *s = (Stepper *)type->tp_alloc(type, 0);
    if (s == NULL)
        return NULL;
    PyObject *tmp = NULL, *fast = NULL;
    Py_ssize_t n = PyList_GET_SIZE(processors);
    s->n = n;
    if (PyList_GET_SIZE(chandlers) != n) {
        PyErr_SetString(PyExc_ValueError, "chandlers: one entry per node");
        goto error;
    }
#define LONG_ATTR(field, name)                                  \
    tmp = PyObject_GetAttrString(kernel, name);                 \
    if (tmp == NULL) goto error;                                \
    s->field = PyLong_AsSsize_t(tmp);                           \
    Py_CLEAR(tmp);                                              \
    if (s->field == -1 && PyErr_Occurred()) goto error;
    LONG_ATTR(delta, "delta")
    LONG_ATTR(kn, "n_codes")
#undef LONG_ATTR
    s->stride = s->delta + 1;
    s->nphase = 2 * s->delta * s->delta + 1;
    if (s->delta + 3 > s->nphase)
        s->nphase = s->delta + 3;
    if (s->delta < 1 || s->delta > ROW_PORT_MASK) {
        PyErr_SetString(PyExc_ValueError, "degree bound out of range");
        goto error;
    }
    /* the shared kernel tables (never resized once built) */
    struct { const char *name; Py_buffer *view; Py_ssize_t len; } tables[4] = {
        {"char_trans", &s->trans_buf, s->kn * s->stride * s->nphase},
        {"char_fill", &s->fill_buf, s->kn * s->stride},
        {"char_family", &s->family_buf, s->kn},
        {"char_flags", &s->flags_buf, s->kn},
    };
    for (int i = 0; i < 4; i++) {
        tmp = PyObject_GetAttrString(kernel, tables[i].name);
        if (tmp == NULL || get_i64_buffer(tmp, tables[i].view, tables[i].len,
                                          tables[i].name) < 0)
            goto error;
        Py_CLEAR(tmp);
    }
    s->trans = s->trans_buf.buf;
    s->fill = s->fill_buf.buf;
    s->family = s->family_buf.buf;
    s->flags = s->flags_buf.buf;
    s->walkable_obj = PyObject_GetAttrString(kernel, "trans_walkable");
    if (s->walkable_obj == NULL)
        goto error;
    if (!PyByteArray_Check(s->walkable_obj) && !PyBytes_Check(s->walkable_obj)) {
        PyErr_SetString(PyExc_TypeError, "trans_walkable must be bytes-like");
        goto error;
    }
    {
        PyObject *w = PyBytes_FromObject(s->walkable_obj);
        if (w == NULL)
            goto error;
        Py_SETREF(s->walkable_obj, w);
        if (PyBytes_GET_SIZE(w) < s->kn) {
            PyErr_SetString(PyExc_ValueError, "trans_walkable too short");
            goto error;
        }
        s->walkable = (const uint8_t *)PyBytes_AS_STRING(w);
    }
    /* body codes: family bank -> out-port-indexed body code */
    s->body = PyMem_Calloc(BANKS * s->stride, sizeof(int64_t));
    tmp = PyObject_GetAttrString(kernel, "body_codes");
    if (s->body == NULL || tmp == NULL)
        goto error;
    fast = PySequence_Fast(tmp, "body_codes");
    if (fast == NULL || PySequence_Fast_GET_SIZE(fast) != BANKS)
        goto error_value;
    for (int bank = 0; bank < BANKS; bank++)
        if (copy_i64_seq(PySequence_Fast_GET_ITEM(fast, bank),
                         s->body + bank * s->stride, s->stride, "body_codes") < 0)
            goto error;
    Py_CLEAR(fast);
    Py_CLEAR(tmp);
    /* KILL scopes: the kernel's handler plan, as a family mask per code */
    s->kill_banks = PyMem_Calloc(s->kn ? s->kn : 1, 1);
    tmp = PyObject_GetAttrString(kernel, "handler_plan");
    if (s->kill_banks == NULL || tmp == NULL)
        goto error;
    fast = PySequence_Fast(tmp, "handler_plan");
    if (fast == NULL || PySequence_Fast_GET_SIZE(fast) != s->kn)
        goto error_value;
    for (Py_ssize_t code = 0; code < s->kn; code++) {
        long slot = PyLong_AsLong(PySequence_Fast_GET_ITEM(fast, code));
        if (slot == -1 && PyErr_Occurred())
            goto error;
        s->kill_banks[code] = slot == PLAN_KILL_RCA   ? KILL_RCA_BANKS
                              : slot == PLAN_KILL_BCA ? KILL_BCA_BANKS
                                                      : 0;
    }
    Py_CLEAR(fast);
    Py_CLEAR(tmp);
    /* wiring */
    Py_ssize_t slots = n * s->stride;
    s->wdst = PyMem_Calloc(slots ? slots : 1, sizeof(int64_t));
    s->wsh = PyMem_Calloc(slots ? slots : 1, sizeof(int64_t));
    s->port_start = PyMem_Calloc(n + 1, sizeof(Py_ssize_t));
    s->walk = PyMem_Calloc(n ? n : 1, 1);
    s->phase = PyMem_Calloc(n ? n * BANKS : 1, sizeof(int64_t));
    s->valid = PyMem_Malloc(n ? n : 1);
    if (!s->wdst || !s->wsh || !s->port_start || !s->walk || !s->phase || !s->valid) {
        PyErr_NoMemory();
        goto error;
    }
    memset(s->valid, 1, n);
    if (copy_i64_seq(wire_dst, s->wdst, slots, "wire_dst") < 0
        || copy_i64_seq(in_shift, s->wsh, slots, "in_shift") < 0)
        goto error;
    {
        int64_t *starts = PyMem_Calloc(n + 1, sizeof(int64_t));
        if (starts == NULL) {
            PyErr_NoMemory();
            goto error;
        }
        if (copy_i64_seq(out_start, starts, n + 1, "out_start") < 0) {
            PyMem_Free(starts);
            goto error;
        }
        for (Py_ssize_t i = 0; i <= n; i++)
            s->port_start[i] = (Py_ssize_t)starts[i];
        PyMem_Free(starts);
    }
    Py_ssize_t total = s->port_start[n];
    s->ports = PyMem_Calloc(total ? total : 1, sizeof(int64_t));
    if (s->ports == NULL) {
        PyErr_NoMemory();
        goto error;
    }
    if (copy_i64_seq(out_ports, s->ports, total, "out_ports") < 0)
        goto error;
    for (Py_ssize_t i = 0; i < total; i++)
        if (s->ports[i] < 1 || s->ports[i] > s->delta)
            goto error_value;
    {
        Py_buffer wv;
        if (PyObject_GetBuffer(walk, &wv, PyBUF_SIMPLE) < 0)
            goto error;
        if (wv.len != n) {
            PyBuffer_Release(&wv);
            goto error_value;
        }
        memcpy(s->walk, wv.buf, n);
        PyBuffer_Release(&wv);
    }
    s->growing_seen = s->kn;
    s->node_ints = int_tuple(n);
    s->code_ints = int_tuple(s->kn);
    if (s->node_ints == NULL || s->code_ints == NULL)
        goto error;
#define KEEP(field) Py_INCREF(field); s->field = field;
    KEEP(processors) KEEP(chandlers) KEEP(emitted) KEEP(buckets) KEEP(ring)
    KEEP(ticks) KEEP(bucket_type) KEEP(deliver_object) KEEP(deliver_other)
    KEEP(drain) KEEP(drain_due) KEEP(active) KEEP(unwired) KEEP(growing)
#undef KEEP
    return (PyObject *)s;
error_value:
    if (!PyErr_Occurred())
        PyErr_SetString(PyExc_ValueError, "malformed stepper tables");
error:
    Py_XDECREF(fast);
    Py_XDECREF(tmp);
    Py_DECREF(s);
    return NULL;
}

static PyMethodDef Stepper_methods[] = {
    {"step", (PyCFunction)Stepper_step, METH_O,
     "step(tick): pop, deliver and sweep the tick's bucket, drain due nodes."},
    {"run", (PyCFunction)(void (*)(void))Stepper_run, METH_FASTCALL,
     "run(engine, max_ticks, until, stop, drain): the run loop; True when the\n"
     "end condition held, False at the budget, None after the stop tick."},
    {"reset", (PyCFunction)Stepper_reset, METH_NOARGS,
     "reset(): power-on phases (all zero, all current)."},
    {"invalidate", (PyCFunction)(void (*)(void))Stepper_invalidate, METH_FASTCALL,
     "invalidate([node]): mark one node's (or every node's) phases stale."},
    {"phases", (PyCFunction)Stepper_phases, METH_O,
     "phases(node): the node's six bank phases, re-derived if stale."},
    {"counters", (PyCFunction)Stepper_counters, METH_NOARGS,
     "counters(): the run counters since construction or reset(), a dict."},
    {NULL, NULL, 0, NULL},
};

static PyTypeObject StepperType = {
    PyVarObject_HEAD_INIT(NULL, 0)
    .tp_name = "repro.sim._stepper.Stepper",
    .tp_basicsize = sizeof(Stepper),
    .tp_flags = Py_TPFLAGS_DEFAULT | Py_TPFLAGS_HAVE_GC,
    .tp_doc = "One flat engine's native tick stepper.",
    .tp_new = Stepper_new,
    .tp_dealloc = (destructor)Stepper_dealloc,
    .tp_traverse = (traverseproc)Stepper_traverse,
    .tp_clear = (inquiry)Stepper_clear,
    .tp_methods = Stepper_methods,
};

static struct PyModuleDef stepper_module = {
    PyModuleDef_HEAD_INIT, "_stepper",
    "Native tick stepper over the character kernel's transition tensor.",
    -1, NULL, NULL, NULL, NULL, NULL,
};

PyMODINIT_FUNC
PyInit__stepper(void)
{
    const char *names[] = {"nodes", "lanes", "_tick", "_outbox", "_due", "mark", "visited",
                           "parent_in", "rca_phase", "bca_phase", "active", "pred",
                           "succ", "promote_next", "clear", "_next_due", "_max_due",
                           "tick", "live"};
    PyObject **slots[] = {&s_nodes, &s_lanes, &s_tick, &s_outbox, &s_due, &s_mark, &s_visited,
                          &s_parent_in, &s_rca_phase, &s_bca_phase, &s_active, &s_pred,
                          &s_succ, &s_promote_next, &s_clear, &s_next_due, &s_max_due,
                          &s_clock, &s_live};
    for (size_t i = 0; i < sizeof(names) / sizeof(names[0]); i++)
        if ((*slots[i] = PyUnicode_InternFromString(names[i])) == NULL)
            return NULL;
    const char *banks[BANKS] = {"_marks_ig", "_marks_og", "_relay_id",
                                "_relay_od", "_marks_bg", "_relay_bd"};
    for (int i = 0; i < BANKS; i++)
        if ((s_bank_attr[i] = PyUnicode_InternFromString(banks[i])) == NULL)
            return NULL;
    if ((zero = PyLong_FromLong(0)) == NULL || PyType_Ready(&StepperType) < 0)
        return NULL;
    PyObject *m = PyModule_Create(&stepper_module);
    if (m == NULL)
        return NULL;
    Py_INCREF(&StepperType);
    if (PyModule_AddObject(m, "Stepper", (PyObject *)&StepperType) < 0
        || PyModule_AddStringConstant(m, "SOURCE_DIGEST", digest_tag + strlen(DIGEST_PREFIX)) < 0
        || PyModule_AddIntConstant(m, "CODE_BITS", CODE_BITS) < 0
        || PyModule_AddIntConstant(m, "SEQ_SHIFT", SEQ_SHIFT) < 0
        || PyModule_AddIntConstant(m, "PORT_SHIFT", PORT_SHIFT) < 0
        || PyModule_AddIntConstant(m, "PRIO_SHIFT", PRIO_SHIFT) < 0
        || PyModule_AddIntConstant(m, "KPRIO_SHIFT", KPRIO_SHIFT) < 0
        || PyModule_AddIntConstant(m, "ROW_CODE_SHIFT", ROW_CODE_SHIFT) < 0) {
        Py_DECREF(m);
        return NULL;
    }
    return m;
}
