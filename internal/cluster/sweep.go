package cluster

import (
	"context"
	"encoding/json"
	"io"
	"net/http"
	"sort"
	"sync"
	"time"
)

// sweep is one grid sweep's cell board: the victim-side state of the
// work-stealing scheduler. The owner (the replica whose job executor
// called RunSweep) consumes pending cells from the head; thieves lease
// contiguous ranges carved from the tail over /cluster/v1/steal and
// report them on /cluster/v1/complete. Completed cells are committed
// strictly in index order — the merge step that keeps a distributed
// sweep byte-identical to a single-node one.
type sweep struct {
	id     int64
	ids    []string
	tenant string
	node   *Node

	// commitMu orders commit emission: whoever flushes holds it across
	// collect+emit, so index order is preserved even when the owner and
	// a thief complete cells concurrently. Always acquired before mu.
	commitMu sync.Mutex
	commit   func(i int, data []byte)

	mu        sync.Mutex
	state     []uint8
	steals    []int
	results   [][]byte
	errs      []*CellError
	watermark int        // cells below this are committed
	failed    *CellError // lowest-index cell error, sticky
	leases    map[int64]*cellLease

	// changed wakes the owner loop (capacity 1, non-blocking sends).
	changed chan struct{}
}

const (
	cellPending uint8 = iota
	cellRunning       // owner is computing it locally
	cellLeased        // a thief holds it
	cellDone
)

// cellLease is one granted steal range.
type cellLease struct {
	thief    string
	cells    []int
	deadline time.Time
}

func newSweep(n *Node, id int64, ids []string, tenant string, commit func(int, []byte)) *sweep {
	return &sweep{
		id:      id,
		ids:     ids,
		tenant:  tenant,
		node:    n,
		commit:  commit,
		state:   make([]uint8, len(ids)),
		steals:  make([]int, len(ids)),
		results: make([][]byte, len(ids)),
		errs:    make([]*CellError, len(ids)),
		leases:  make(map[int64]*cellLease),
		changed: make(chan struct{}, 1),
	}
}

// notify wakes the owner loop without blocking. Callers must not hold
// s.mu (not for correctness — the send never blocks — but to keep lock
// hold times minimal).
func (s *sweep) notify() {
	select {
	case s.changed <- struct{}{}:
	default:
	}
}

// RunSweep computes cells ids[0..n-1] across the cluster: the calling
// replica owns the sweep and computes from the head while idle peers
// steal tail ranges. commit is called exactly once per successful cell,
// in strict index order, as the completed prefix grows. On a cell
// error, commit stops at the failing index (cells before it are already
// committed) and the lowest-index error is returned — matching the
// serial single-node loop's stop-at-first-error semantics. A cancelled
// ctx aborts the sweep with ctx.Err.
//
// With zero reachable peers the loop degrades to exactly the
// single-node behavior: the owner computes every cell serially, in
// order, and no lease machinery engages.
func (n *Node) RunSweep(ctx context.Context, ids []string, tenant string, commit func(i int, data []byte)) (*CellError, error) {
	if len(ids) == 0 {
		return nil, nil
	}
	if n.backend.ExecCell == nil {
		return nil, context.Canceled
	}
	n.m.sweeps.Add(1)
	s := newSweep(n, n.seq.Add(1), ids, tenant, commit)
	n.sweepMu.Lock()
	n.sweeps[s.id] = s
	n.sweepMu.Unlock()
	defer func() {
		n.sweepMu.Lock()
		delete(n.sweeps, s.id)
		n.sweepMu.Unlock()
	}()

	for {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		s.expireLeases(n.now())
		idx, st := s.next()
		switch st {
		case sweepDone:
			return nil, nil
		case sweepFailed:
			s.mu.Lock()
			failed := s.failed
			s.mu.Unlock()
			return failed, nil
		case sweepRun:
			data, cerr := n.backend.ExecCell(ctx, ids[idx])
			s.record(idx, data, cerr)
		case sweepWait:
			s.waitChange(ctx)
		}
	}
}

// next's outcomes.
const (
	sweepRun    = iota // idx is marked running; compute it
	sweepWait          // nothing pending, leases outstanding: wait
	sweepDone          // every cell committed
	sweepFailed        // the failure prefix is complete; s.failed is set
)

// next claims the first pending cell for the owner, or classifies why
// it cannot.
func (s *sweep) next() (int, int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.failed != nil {
		return 0, sweepFailed
	}
	if s.watermark == len(s.ids) {
		return 0, sweepDone
	}
	for i := s.watermark; i < len(s.ids); i++ {
		if s.state[i] == cellPending {
			s.state[i] = cellRunning
			return i, sweepRun
		}
	}
	return 0, sweepWait
}

// waitChange blocks until a completion/expiry notification, the next
// lease deadline, or ctx.
func (s *sweep) waitChange(ctx context.Context) {
	s.mu.Lock()
	var next time.Time
	for _, l := range s.leases {
		if next.IsZero() || l.deadline.Before(next) {
			next = l.deadline
		}
	}
	s.mu.Unlock()
	wait := s.node.cfg.LeaseTimeout
	if !next.IsZero() {
		if d := next.Sub(s.node.now()); d < wait {
			wait = d
		}
	}
	if wait < time.Millisecond {
		wait = time.Millisecond
	}
	t := time.NewTimer(wait)
	defer t.Stop()
	select {
	case <-ctx.Done():
	case <-s.changed:
	case <-t.C:
	}
}

// record stores one locally-computed or thief-reported cell and flushes
// the committable prefix.
func (s *sweep) record(idx int, data []byte, cerr *CellError) {
	s.commitMu.Lock()
	s.mu.Lock()
	if s.state[idx] != cellDone {
		s.state[idx] = cellDone
		s.results[idx] = data
		s.errs[idx] = cerr
	}
	s.flushLocked()
	s.commitMu.Unlock()
	s.notify()
}

// flushLocked advances the watermark over done cells, emitting commits
// in index order, stopping at (and capturing) the first error. Caller
// holds commitMu and mu; mu is released during emission and the method
// returns with mu unlocked.
func (s *sweep) flushLocked() {
	type out struct {
		idx  int
		data []byte
	}
	var emit []out
	for s.watermark < len(s.ids) && s.state[s.watermark] == cellDone && s.failed == nil {
		if e := s.errs[s.watermark]; e != nil {
			s.failed = e
			break
		}
		emit = append(emit, out{idx: s.watermark, data: s.results[s.watermark]})
		s.watermark++
	}
	s.mu.Unlock()
	for _, o := range emit {
		s.commit(o.idx, o.data)
	}
}

// expireLeases re-queues the cells of every lease past its deadline.
// The steal budget consumed at grant time stays consumed: a cell whose
// budget is exhausted can only run on the owner, so a flapping thief
// delays each cell at most MaxSteals lease timeouts — the deterministic
// retry bound.
func (s *sweep) expireLeases(now time.Time) {
	s.mu.Lock()
	expired := 0
	for id, l := range s.leases {
		if l.deadline.After(now) {
			continue
		}
		for _, c := range l.cells {
			if s.state[c] == cellLeased {
				s.state[c] = cellPending
				expired++
			}
		}
		delete(s.leases, id)
	}
	s.mu.Unlock()
	if expired > 0 {
		s.node.m.reissued.Add(int64(expired))
		s.notify()
	}
}

// carve grants a thief a contiguous range from the tail of the pending
// cells, if at least two steal-eligible cells remain (the head stays
// with the owner). It takes the upper half of the longest contiguous
// eligible run ending at the highest eligible index.
func (s *sweep) carve(thief string, leaseID int64, now time.Time, leaseTimeout time.Duration, maxSteals int) *stealResponse {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.failed != nil {
		return nil
	}
	eligible := func(i int) bool { return s.state[i] == cellPending && s.steals[i] < maxSteals }
	hi := -1
	for i := len(s.ids) - 1; i >= 0; i-- {
		if eligible(i) {
			hi = i
			break
		}
	}
	if hi < 0 {
		return nil
	}
	lo := hi
	for lo > 0 && eligible(lo-1) {
		lo--
	}
	run := hi - lo + 1
	if run < 2 {
		return nil
	}
	take := run / 2
	start := hi - take + 1
	cells := make([]int, 0, take)
	ids := make([]string, 0, take)
	for i := start; i <= hi; i++ {
		s.state[i] = cellLeased
		s.steals[i]++
		cells = append(cells, i)
		ids = append(ids, s.ids[i])
	}
	s.leases[leaseID] = &cellLease{thief: thief, cells: cells, deadline: now.Add(leaseTimeout)}
	return &stealResponse{
		Sweep:   s.id,
		Lease:   leaseID,
		Start:   start,
		IDs:     ids,
		Tenant:  s.tenant,
		LeaseMS: leaseTimeout.Milliseconds(),
	}
}

// applyComplete folds a thief's report into the board. Reported results
// are accepted for any not-yet-done cell — results are deterministic,
// so a late report from an expired lease is still correct work worth
// keeping. Released cells (drain handback) re-enter pending with their
// steal budget refunded.
func (s *sweep) applyComplete(req *completeRequest) {
	s.commitMu.Lock()
	s.mu.Lock()
	reported := make(map[int]bool, len(req.Cells))
	for _, c := range req.Cells {
		if c.Index < 0 || c.Index >= len(s.ids) {
			continue
		}
		reported[c.Index] = true
		if s.state[c.Index] == cellDone {
			continue
		}
		s.state[c.Index] = cellDone
		s.results[c.Index] = c.Data
		s.errs[c.Index] = c.Err
	}
	released := 0
	if l := s.leases[req.Lease]; l != nil {
		for _, c := range l.cells {
			if s.state[c] == cellLeased && !reported[c] {
				s.state[c] = cellPending
				released++
				if req.Released && s.steals[c] > 0 {
					s.steals[c]--
				}
			}
		}
		delete(s.leases, req.Lease)
	}
	s.flushLocked()
	s.commitMu.Unlock()
	if released > 0 && req.Released {
		s.node.m.released.Add(int64(released))
	}
	s.notify()
}

// ---------------------------------------------------------------------
// Victim-side HTTP handlers.

func (n *Node) handleSteal(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		http.Error(w, "method not allowed", http.StatusMethodNotAllowed)
		return
	}
	if n.draining.Load() {
		http.Error(w, "draining", http.StatusServiceUnavailable)
		return
	}
	var sreq stealRequest
	if err := json.NewDecoder(io.LimitReader(r.Body, 1<<16)).Decode(&sreq); err != nil {
		http.Error(w, "bad request", http.StatusBadRequest)
		return
	}
	now := n.now()
	for _, s := range n.activeSweeps() {
		s.expireLeases(now)
		if grant := s.carve(sreq.Thief, n.seq.Add(1), now, n.cfg.LeaseTimeout, n.cfg.MaxSteals); grant != nil {
			n.m.stolenByPeers.Add(int64(len(grant.IDs)))
			writeWire(w, http.StatusOK, grant)
			return
		}
	}
	w.WriteHeader(http.StatusNoContent)
}

func (n *Node) handleComplete(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		http.Error(w, "method not allowed", http.StatusMethodNotAllowed)
		return
	}
	var creq completeRequest
	if err := json.NewDecoder(io.LimitReader(r.Body, 64<<20)).Decode(&creq); err != nil {
		http.Error(w, "bad request", http.StatusBadRequest)
		return
	}
	n.sweepMu.Lock()
	s := n.sweeps[creq.Sweep]
	n.sweepMu.Unlock()
	if s == nil {
		// The sweep finished or failed; the work is moot.
		w.WriteHeader(http.StatusGone)
		return
	}
	s.applyComplete(&creq)
	w.WriteHeader(http.StatusNoContent)
}

// activeSweeps snapshots the sweep boards in id order (oldest first),
// so thieves drain the longest-waiting sweep first and map iteration
// order never reaches the wire.
func (n *Node) activeSweeps() []*sweep {
	n.sweepMu.Lock()
	defer n.sweepMu.Unlock()
	out := make([]*sweep, 0, len(n.sweeps))
	for _, s := range n.sweeps {
		out = append(out, s)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].id < out[j].id })
	return out
}
