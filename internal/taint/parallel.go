package taint

import (
	"context"
	"fmt"
	"reflect"
	"runtime/debug"
	"sync"
	"sync/atomic"

	"flowdroid/internal/ir"
	"flowdroid/internal/metrics"
)

// This file holds the concurrency machinery of the bidirectional engine:
// the shared counting-tracked work queue both solvers feed, the striped
// path-edge tables, and the worker pool. The design follows Heros'
// parallel IFDS solver: path-edge processing is independent work, the
// jump tables, incoming sets and summaries are shared state, and the
// exploded-graph closure is confluent — every schedule computes the same
// fact sets, only the discovery order differs.

// task is one queued path-edge processing step, tagged with the solver
// direction it belongs to. Forward and backward items share one queue so
// the worker pool never idles while either solver has work.
type task struct {
	backward bool
	item
}

// workQueue is the counting-tracked LIFO queue. pending counts queued
// plus in-flight items; the run is over when pending reaches zero (fixed
// point) or when stop flips the queue into an aborted state
// (cancellation, exhausted budget, leak cap).
type workQueue struct {
	mu      sync.Mutex
	cond    *sync.Cond
	items   []task
	pending int
	done    bool
	status  Status // Completed unless stop() recorded an abort reason
	// aborted mirrors "stop() was called" for lock-free reads: the
	// propagation hot path checks it on every insertion so an aborted run
	// stops recording edges and charging budget as soon as the flag is
	// visible, without taking the queue lock.
	aborted atomic.Bool
	// depth, when metrics are enabled, tracks the live queue depth (and
	// with it the high-water mark); nil otherwise — Gauge methods no-op
	// on nil, so the disabled cost is one predictable branch.
	depth *metrics.Gauge
}

func newWorkQueue() *workQueue {
	// Even small apps enqueue thousands of path edges; starting with a
	// real backing array skips the first several append growths.
	q := &workQueue{items: make([]task, 0, 1024)}
	q.cond = sync.NewCond(&q.mu)
	return q
}

// push enqueues a task and wakes one waiting worker.
func (q *workQueue) push(t task) {
	q.mu.Lock()
	q.items = append(q.items, t)
	q.pending++
	q.cond.Signal()
	q.mu.Unlock()
	q.depth.Add(1)
}

// stop aborts the run with the given status and wakes every worker; the
// first recorded reason wins.
func (q *workQueue) stop(st Status) {
	q.mu.Lock()
	if !q.done {
		q.done = true
		q.status = st
	}
	q.aborted.Store(true)
	q.cond.Broadcast()
	q.mu.Unlock()
}

// finalStatus reads the status after the run has settled.
func (q *workQueue) finalStatus() Status {
	q.mu.Lock()
	defer q.mu.Unlock()
	return q.status
}

// drainSequential processes the queue to exhaustion on the calling
// goroutine — the Workers <= 1 path. It pays only uncontended lock
// overhead and keeps the historical single-threaded behaviour (modulo
// item order, which the confluent closure makes irrelevant).
func (e *engine) drainSequential(ctx context.Context) {
	q := e.q
	steps := 0
	if e.rec != nil {
		defer func() {
			e.rec.Counter("taint.worker0.drained", metrics.Schedule).Add(int64(steps))
		}()
	}
	for {
		q.mu.Lock()
		if q.done && q.status != Completed {
			q.mu.Unlock()
			return
		}
		if len(q.items) == 0 {
			q.done = true
			q.mu.Unlock()
			return
		}
		t := q.items[len(q.items)-1]
		q.items = q.items[:len(q.items)-1]
		q.pending--
		q.mu.Unlock()
		q.depth.Add(-1)
		steps++
		if steps%ctxCheckEvery == 0 && ctx.Err() != nil {
			q.stop(Cancelled)
			return
		}
		e.processTask(t)
	}
}

// workerPanic carries a panic captured on a worker goroutine over to the
// drainParallel caller. It preserves the original value and the worker's
// stack so the recovery that eventually catches the re-raise (the
// pipeline's stage guard, the corpus batch isolation, a test harness)
// reports where the solve actually failed, not where it was re-thrown.
type workerPanic struct {
	val   any
	stack []byte
}

func (p *workerPanic) Error() string {
	return fmt.Sprintf("taint solver worker panic: %v\n%s", p.val, p.stack)
}

// drainParallel runs the worker pool. A watcher goroutine turns context
// expiry into a queue shutdown; the call returns only after every worker
// has terminated, so no goroutine leaks past it.
//
// A panic inside a flow function must not crash the process: the
// callers' recovery (pipeline stage guards, per-app batch isolation)
// only covers the goroutine that called Analyze. Each worker therefore
// recovers its own panics, the first one is kept (value plus stack), the
// pool is shut down, and the captured panic is re-raised here — on the
// calling goroutine — after every worker has exited, so the parallel
// path degrades exactly like the sequential one.
func (e *engine) drainParallel(ctx context.Context, workers int) {
	q := e.q
	watchDone := make(chan struct{})
	var watchWG sync.WaitGroup
	watchWG.Add(1)
	go func() {
		defer watchWG.Done()
		select {
		case <-ctx.Done():
			q.stop(Cancelled)
		case <-watchDone:
		}
	}()

	var panicMu sync.Mutex
	var firstPanic *workerPanic
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer func() {
				if r := recover(); r != nil {
					panicMu.Lock()
					if firstPanic == nil {
						firstPanic = &workerPanic{val: r, stack: debug.Stack()}
					}
					panicMu.Unlock()
					// The panicking worker never decremented pending for
					// its in-flight item, so the queue cannot reach the
					// fixed point; stop() releases the other workers. The
					// status is irrelevant — the re-raise below unwinds
					// run() before it is read.
					q.stop(Cancelled)
				}
			}()
			e.worker(w)
		}()
	}
	wg.Wait()
	close(watchDone)
	watchWG.Wait()
	if firstPanic != nil {
		panic(firstPanic)
	}
}

// worker drains the queue until the run completes or aborts. An aborted
// run (cancellation, budget, leak cap) abandons the remaining queue; a
// completed run exits once the queue is empty and nothing is in flight.
// The per-worker drained count is a scheduling fact (how the pool split
// the work), exported under the schedule section when metrics are on.
func (e *engine) worker(id int) {
	q := e.q
	drained := 0
	if e.rec != nil {
		defer func() {
			e.rec.Counter(fmt.Sprintf("taint.worker%d.drained", id), metrics.Schedule).Add(int64(drained))
		}()
	}
	for {
		q.mu.Lock()
		for len(q.items) == 0 && !q.done {
			if q.pending == 0 {
				q.done = true
				q.cond.Broadcast()
				break
			}
			q.cond.Wait()
		}
		if q.done && (q.status != Completed || len(q.items) == 0) {
			q.mu.Unlock()
			return
		}
		t := q.items[len(q.items)-1]
		q.items = q.items[:len(q.items)-1]
		q.mu.Unlock()
		q.depth.Add(-1)
		drained++

		e.processTask(t)

		q.mu.Lock()
		q.pending--
		if q.pending == 0 {
			q.done = true
			q.cond.Broadcast()
		}
		q.mu.Unlock()
	}
}

func (e *engine) processTask(t task) {
	if t.backward {
		e.processBackward(t.item)
	} else {
		e.processForward(t.item)
	}
}

// jumpShards is the stripe count of the path-edge tables. Striping by
// statement keeps workers that process different program points off each
// other's locks; 64 stripes make collisions rare at any realistic worker
// count.
const jumpShards = 64

type jumpShard struct {
	mu sync.Mutex
	m  map[ir.Stmt]map[edge]bool
}

// jumpTable is a striped set of path edges ⟨d1⟩ → ⟨n, d2⟩.
type jumpTable struct {
	shards [jumpShards]jumpShard
}

func newJumpTable() *jumpTable {
	t := &jumpTable{}
	for i := range t.shards {
		t.shards[i].m = make(map[ir.Stmt]map[edge]bool)
	}
	return t
}

// insert adds the path edge at n and reports whether it was novel.
func (t *jumpTable) insert(n ir.Stmt, pe edge) bool {
	sh := &t.shards[stmtShard(n)]
	sh.mu.Lock()
	defer sh.mu.Unlock()
	edges := sh.m[n]
	if edges == nil {
		// Most statements accumulate a handful of edges; pre-sizing the
		// bucket skips the first grow-and-rehash cycles.
		edges = make(map[edge]bool, 8)
		sh.m[n] = edges
	}
	if edges[pe] {
		return false
	}
	edges[pe] = true
	return true
}

// stmtShard hashes a statement's identity onto a stripe. Every ir.Stmt
// implementation in this package's IR is a pointer, so the interface
// data word is a stable identity; the low bits are shifted off because
// allocations are aligned. A non-pointer implementation is still
// constructible (embedding *ir.StmtBase promotes the interface onto a
// value type), and reflect's Pointer() would panic on it — fall back to
// the statement's body index, which is stable after Finalize. Sharding
// only affects lock distribution, never correctness.
func stmtShard(n ir.Stmt) uintptr {
	if v := reflect.ValueOf(n); v.Kind() == reflect.Pointer {
		return (v.Pointer() >> 4) % jumpShards
	}
	idx := n.Index()
	if idx < 0 {
		idx = -idx
	}
	return uintptr(idx) % jumpShards
}
