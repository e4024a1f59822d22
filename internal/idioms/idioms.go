// Package idioms is a library of reusable Transaction Datalog fragments
// for process coordination: semaphores, mutexes, barriers, bounded
// buffers, and rendezvous. The paper positions TD against process algebras
// (CCS, CSP [62, 51]); these idioms show the standard coordination
// patterns arising from TD's primitives — tuples as tokens, queries as
// blocking waits, test-and-consume as acquisition, and the database as the
// only communication medium.
//
// Each constructor returns TD source text (rules and, where applicable,
// initial facts) parameterized by a name prefix, so multiple instances
// compose in one program. The operational reading assumes the simulator's
// guarded rule firing (test-and-consume is atomic); under the pure
// declarative semantics, wrap acquisitions in iso(...) as shown by
// package verify — or prove goals whose invariants you have verified.
package idioms

import (
	"fmt"
	"strings"
)

// Semaphore returns rules and facts for a counting semaphore holding n
// permits. Use: "<name>_acquire" blocks until a permit is available and
// consumes it; "<name>_release" returns one.
//
// Implementation: permits are plain tokens <name>_permit(i); acquisition
// is the atomic test-and-consume of any token.
// Acquisition moves a permit token into the held pool; release moves one
// back. Tracking permit identities (rather than minting fresh tokens on
// release) makes "permits + held = n" an invariant tests can check.
func Semaphore(name string, n int) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%% semaphore %s(%d)\n", name, n)
	fmt.Fprintf(&b, "%s_acquire :- %s_permit(P), del.%s_permit(P), ins.%s_held(P).\n", name, name, name, name)
	fmt.Fprintf(&b, "%s_release :- %s_held(P), del.%s_held(P), ins.%s_permit(P).\n", name, name, name, name)
	for i := 1; i <= n; i++ {
		fmt.Fprintf(&b, "%s_permit(%d).\n", name, i)
	}
	return b.String()
}

// Mutex is a binary semaphore with a with-lock wrapper: "<name>_lock",
// "<name>_unlock".
func Mutex(name string) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%% mutex %s\n", name)
	fmt.Fprintf(&b, "%s_lock :- %s_token, del.%s_token.\n", name, name, name)
	fmt.Fprintf(&b, "%s_unlock :- ins.%s_token.\n", name, name)
	fmt.Fprintf(&b, "%s_token.\n", name)
	return b.String()
}

// Barrier returns rules for a k-party single-use barrier: each party runs
// "<name>_arrive(Id)" with a distinct id and is released only when all k
// have arrived.
//
// Implementation: arrivals accumulate as tuples; the barrier opens when
// the k-th arrival inserts the open flag, which every waiter's final query
// blocks on. Counting is by chaining: arrival i consumes slot i and
// releases slot i+1; slot k+1 opens the barrier. The slot tuple is a token:
// between del.slot(S) and ins.slot(T) no other party can arrive, and the
// arrival marker is written inside that critical section — written after
// it, the last arriver could open the barrier before a slower party's
// marker landed. The query and delete of the slot stay first: they are the
// rule's guard.
func Barrier(name string, k int) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%% barrier %s(%d)\n", name, k)
	fmt.Fprintf(&b, "%s_arrive(Id) :- %s_slot(S), del.%s_slot(S), ins.%s_arrived(Id), add(S, 1, T), ins.%s_slot(T), %s_wait(S).\n",
		name, name, name, name, name, name)
	fmt.Fprintf(&b, "%s_wait(S) :- S >= %d, ins.%s_open.\n", name, k, name)
	fmt.Fprintf(&b, "%s_wait(S) :- S < %d, %s_open.\n", name, k, name)
	fmt.Fprintf(&b, "%s_slot(1).\n", name)
	return b.String()
}

// Buffer returns rules for a bounded buffer (producer/consumer channel) of
// capacity cap: "<name>_put(V)" blocks when full, "<name>_get(V)" blocks
// when empty and binds V to a (nondeterministically chosen) buffered
// value.
//
// Implementation: capacity is a pool of cell tokens; put consumes a cell
// and stores the value, get consumes a stored value and frees its cell.
func Buffer(name string, capacity int) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%% bounded buffer %s(%d)\n", name, capacity)
	fmt.Fprintf(&b, "%s_put(V) :- %s_cell(C), del.%s_cell(C), ins.%s_item(C, V).\n", name, name, name, name)
	fmt.Fprintf(&b, "%s_get(V) :- %s_item(C, V), del.%s_item(C, V), ins.%s_cell(C).\n", name, name, name, name)
	for i := 1; i <= capacity; i++ {
		fmt.Fprintf(&b, "%s_cell(%d).\n", name, i)
	}
	return b.String()
}

// Rendezvous returns rules for a two-party synchronization point: both
// "<name>_left" and "<name>_right" complete only after both have started
// (a CCS-style handshake through the database).
func Rendezvous(name string) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%% rendezvous %s\n", name)
	fmt.Fprintf(&b, "%s_left :- ins.%s_lready, %s_rready.\n", name, name, name)
	fmt.Fprintf(&b, "%s_right :- ins.%s_rready, %s_lready.\n", name, name, name)
	return b.String()
}

// Once returns rules for do-once initialization: any number of concurrent
// "<name>_do" calls complete, but the guarded body token is produced
// exactly once.
func Once(name string) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%% once %s\n", name)
	fmt.Fprintf(&b, "%s_do :- %s_pending, del.%s_pending, ins.%s_done_marker.\n", name, name, name, name)
	fmt.Fprintf(&b, "%s_do :- %s_done_marker.\n", name, name)
	fmt.Fprintf(&b, "%s_pending.\n", name)
	return b.String()
}
