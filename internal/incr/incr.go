// Package incr implements incremental re-analysis: Section 1 notes
// that block-based (S)STA is "efficient, incremental, and suitable
// for optimization", and an optimizer changing one gate must not pay
// for a full-circuit pass. Both the SSTA baseline and SPSTA are
// wrapped: after a delay or launch-statistics change, only the
// affected fanout cone is recomputed, level by level, stopping as
// soon as propagated values stop changing.
package incr

import (
	"fmt"
	"math"

	"repro/internal/core"
	"repro/internal/dist"
	"repro/internal/logic"
	"repro/internal/netlist"
	"repro/internal/obs"
	"repro/internal/ssta"
)

// levelQueue is a min-heap of nodes ordered by logic level, the
// standard worklist for incremental timing: a node is processed only
// after every fanin that might still change. Membership is a flag per
// node; a session keeps one queue and reuses it for every update.
type levelQueue struct {
	c     *netlist.Circuit
	items []netlist.NodeID
	in    []bool
}

func newLevelQueue(c *netlist.Circuit) *levelQueue {
	return &levelQueue{c: c, in: make([]bool, len(c.Nodes))}
}

func (q *levelQueue) less(a, b netlist.NodeID) bool {
	la, lb := q.c.Nodes[a].Level, q.c.Nodes[b].Level
	if la != lb {
		return la < lb
	}
	return a < b
}

func (q *levelQueue) add(id netlist.NodeID) {
	if q.in[id] {
		return
	}
	q.in[id] = true
	q.items = append(q.items, id)
	for i := len(q.items) - 1; i > 0; {
		p := (i - 1) / 2
		if !q.less(q.items[i], q.items[p]) {
			break
		}
		q.items[i], q.items[p] = q.items[p], q.items[i]
		i = p
	}
}

func (q *levelQueue) take() (netlist.NodeID, bool) {
	n := len(q.items)
	if n == 0 {
		return 0, false
	}
	id := q.items[0]
	n--
	q.items[0] = q.items[n]
	q.items = q.items[:n]
	for i := 0; ; {
		m, l, r := i, 2*i+1, 2*i+2
		if l < n && q.less(q.items[l], q.items[m]) {
			m = l
		}
		if r < n && q.less(q.items[r], q.items[m]) {
			m = r
		}
		if m == i {
			break
		}
		q.items[i], q.items[m] = q.items[m], q.items[i]
		i = m
	}
	q.in[id] = false
	return id, true
}

// reset empties a queue an aborted update may have left non-empty.
func (q *levelQueue) reset() {
	for _, id := range q.items {
		q.in[id] = false
	}
	q.items = q.items[:0]
}

// propagate runs one level-ordered pass from the seeds: each popped
// node is recomputed, and the combinational fanouts of every node
// whose recomputation changed it are queued. Every node is recomputed
// at most once per pass, after all of its fanins that the pass
// touches. It returns the number of recomputations.
func (q *levelQueue) propagate(seeds []netlist.NodeID, recompute func(netlist.NodeID) (bool, error)) (int, error) {
	q.reset()
	for _, id := range seeds {
		q.add(id)
	}
	evals := 0
	for {
		id, ok := q.take()
		if !ok {
			return evals, nil
		}
		evals++
		changed, err := recompute(id)
		if err != nil {
			return evals, err
		}
		if !changed {
			continue
		}
		for _, out := range q.c.Nodes[id].Fanout {
			if q.c.Nodes[out].Type.Combinational() {
				q.add(out)
			}
		}
	}
}

// Changes is one override change set for Apply. Clears are installed
// before sets, so a net named in both ends up with the set value.
type Changes struct {
	// SetDelay installs or replaces gate-delay overrides.
	SetDelay map[netlist.NodeID]dist.Normal
	// ClearDelay removes gate-delay overrides, restoring the base
	// model; gates without an override are skipped.
	ClearDelay []netlist.NodeID
	// SetInput replaces launch-point statistics.
	SetInput map[netlist.NodeID]logic.InputStats
	// ClearInput restores launch points' original statistics.
	ClearInput []netlist.NodeID
}

// overrides is the edit state both incremental engines share: the
// launch statistics in effect and the original ones, the gate-delay
// overrides over the base model, and the session's reusable worklist.
type overrides struct {
	c      *netlist.Circuit
	inputs map[netlist.NodeID]logic.InputStats
	baseIn map[netlist.NodeID]logic.InputStats
	base   ssta.DelayModel
	over   map[netlist.NodeID]dist.Normal
	q      *levelQueue
	seeds  []netlist.NodeID
}

func newOverrides(c *netlist.Circuit, inputs map[netlist.NodeID]logic.InputStats, base ssta.DelayModel) overrides {
	if base == nil {
		base = ssta.UnitDelay
	}
	return overrides{
		c:      c,
		inputs: cloneStats(inputs),
		baseIn: cloneStats(inputs),
		base:   base,
		over:   make(map[netlist.NodeID]dist.Normal),
		q:      newLevelQueue(c),
	}
}

func cloneStats(in map[netlist.NodeID]logic.InputStats) map[netlist.NodeID]logic.InputStats {
	out := make(map[netlist.NodeID]logic.InputStats, len(in))
	for k, v := range in {
		out[k] = v
	}
	return out
}

// delay is the delay model in effect: the base model under the
// overrides.
func (o *overrides) delay(n *netlist.Node) dist.Normal {
	if d, ok := o.over[n.ID]; ok {
		return d
	}
	return o.base(n)
}

// install applies a change set — clears first, then sets — and
// returns the nets it edited, the seeds of the propagation. Clearing
// a gate without an override edits nothing.
func (o *overrides) install(ch Changes) []netlist.NodeID {
	seeds := o.seeds[:0]
	for _, id := range ch.ClearDelay {
		if _, ok := o.over[id]; ok {
			delete(o.over, id)
			seeds = append(seeds, id)
		}
	}
	for _, id := range ch.ClearInput {
		if st, ok := o.baseIn[id]; ok {
			o.inputs[id] = st
		} else {
			delete(o.inputs, id)
		}
		seeds = append(seeds, id)
	}
	for id, d := range ch.SetDelay {
		o.over[id] = d
		seeds = append(seeds, id)
	}
	for id, st := range ch.SetInput {
		o.inputs[id] = st
		seeds = append(seeds, id)
	}
	o.seeds = seeds
	return seeds
}

// SSTA is an incrementally-updatable SSTA analysis.
type SSTA struct {
	overrides
	res *ssta.Result
	// Eps is the change threshold below which propagation stops
	// (default exact: 0).
	Eps float64
}

// NewSSTA runs the initial full analysis. base defaults to unit
// delays when nil.
func NewSSTA(c *netlist.Circuit, inputs map[netlist.NodeID]logic.InputStats, base ssta.DelayModel) *SSTA {
	s := &SSTA{overrides: newOverrides(c, inputs, base)}
	s.res = ssta.Analyze(c, s.inputs, s.delay)
	return s
}

// Result returns the current (always-consistent) analysis.
func (s *SSTA) Result() *ssta.Result { return s.res }

// At returns the current arrival of direction d at net id.
func (s *SSTA) At(id netlist.NodeID, d ssta.Dir) dist.Normal { return s.res.At(id, d) }

// Apply installs a whole override change set and then propagates it
// in one level-ordered pass over the union of the touched fanout
// cones, so a net shared by several edited cones is recomputed once.
// It returns the number of node recomputations.
func (s *SSTA) Apply(ch Changes) int {
	evals, _ := s.q.propagate(s.install(ch), func(id netlist.NodeID) (bool, error) {
		r, f := ssta.ComputeNode(s.res, id, s.inputs, s.delay)
		if normalsClose(r, s.res.Arrival[ssta.DirRise][id], s.Eps) &&
			normalsClose(f, s.res.Arrival[ssta.DirFall][id], s.Eps) {
			return false, nil
		}
		s.res.Arrival[ssta.DirRise][id] = r
		s.res.Arrival[ssta.DirFall][id] = f
		return true, nil
	})
	return evals
}

// SetDelay overrides one gate's delay and propagates the change
// through its fanout cone. It returns the number of node
// recomputations performed.
func (s *SSTA) SetDelay(id netlist.NodeID, d dist.Normal) int {
	return s.Apply(Changes{SetDelay: map[netlist.NodeID]dist.Normal{id: d}})
}

// SetInput replaces one launch point's statistics and propagates.
func (s *SSTA) SetInput(id netlist.NodeID, st logic.InputStats) int {
	return s.Apply(Changes{SetInput: map[netlist.NodeID]logic.InputStats{id: st}})
}

// ClearDelay removes a delay override, restoring the base model for
// the gate and propagating through its fanout cone. A no-op (zero
// recomputations) when the gate has no override.
func (s *SSTA) ClearDelay(id netlist.NodeID) int {
	return s.Apply(Changes{ClearDelay: []netlist.NodeID{id}})
}

// ClearInput restores one launch point's original statistics (the
// map NewSSTA was given) and propagates.
func (s *SSTA) ClearInput(id netlist.NodeID) int {
	return s.Apply(Changes{ClearInput: []netlist.NodeID{id}})
}

func normalsClose(a, b dist.Normal, eps float64) bool {
	return math.Abs(a.Mu-b.Mu) <= eps && math.Abs(a.Sigma-b.Sigma) <= eps
}

// SPSTA is an incrementally-updatable SPSTA analysis.
type SPSTA struct {
	overrides
	a   core.Analyzer
	res *core.Result
	// Eps is the L1 threshold on probabilities and t.o.p. change
	// below which propagation stops. The default 1e-12 keeps
	// results bit-comparable to a full re-run while still cutting
	// off numerically-identical cones.
	Eps float64
}

// NewSPSTA runs the initial full analysis with the given analyzer
// configuration. The whole-circuit ExactProbabilities correction is
// incompatible with cone-local updates and is rejected.
func NewSPSTA(a core.Analyzer, c *netlist.Circuit, inputs map[netlist.NodeID]logic.InputStats) (*SPSTA, error) {
	if a.ExactProbabilities {
		return nil, fmt.Errorf("incr: ExactProbabilities is a whole-circuit correction; run core.Analyzer directly")
	}
	s := &SPSTA{overrides: newOverrides(c, inputs, a.Delay), a: a, Eps: 1e-12}
	s.a.Delay = s.delay
	res, err := s.a.Run(c, s.inputs)
	if err != nil {
		return nil, err
	}
	s.res = res
	return s, nil
}

// Apply installs a whole override change set and then propagates it
// in one level-ordered pass over the union of the touched fanout
// cones, so a net shared by several edited cones is recomputed once.
// It returns the number of node recomputations. Launch statistics are
// validated before anything is installed: an invalid set changes
// nothing.
func (s *SPSTA) Apply(ch Changes) (int, error) {
	for _, st := range ch.SetInput {
		if err := st.Validate(); err != nil {
			return 0, err
		}
	}
	return s.q.propagate(s.install(ch), func(id netlist.NodeID) (bool, error) {
		prev := s.res.State[id]
		if err := s.a.ComputeNode(s.res, id, s.inputs); err != nil {
			return false, err
		}
		// An unchanged net gets its exact previous state back, which
		// keeps untouched cones bit-identical.
		changed := !stateClose(&prev, &s.res.State[id], s.Eps)
		s.res.Commit(id, prev, changed)
		return changed, nil
	})
}

// SetDelay overrides one gate's delay and propagates through its
// fanout cone, returning the number of node recomputations.
func (s *SPSTA) SetDelay(id netlist.NodeID, d dist.Normal) (int, error) {
	return s.Apply(Changes{SetDelay: map[netlist.NodeID]dist.Normal{id: d}})
}

// Result returns the current analysis.
func (s *SPSTA) Result() *core.Result { return s.res }

// SetInput replaces one launch point's statistics and propagates
// through its fanout cone, returning the number of node
// recomputations.
func (s *SPSTA) SetInput(id netlist.NodeID, st logic.InputStats) (int, error) {
	return s.Apply(Changes{SetInput: map[netlist.NodeID]logic.InputStats{id: st}})
}

// ClearDelay removes a delay override, restoring the base model for
// the gate and propagating through its fanout cone. A no-op (zero
// recomputations) when the gate has no override.
func (s *SPSTA) ClearDelay(id netlist.NodeID) (int, error) {
	return s.Apply(Changes{ClearDelay: []netlist.NodeID{id}})
}

// ClearInput restores one launch point's original statistics (the
// map NewSPSTA was given) and propagates.
func (s *SPSTA) ClearInput(id netlist.NodeID) (int, error) {
	return s.Apply(Changes{ClearInput: []netlist.NodeID{id}})
}

// Circuit returns the analyzed circuit.
func (s *SPSTA) Circuit() *netlist.Circuit { return s.c }

// SetObs re-attaches the session to an observability scope: later
// SetDelay/SetInput/Clear* recomputations record their metrics (cost
// units, kernel counters) and spans into the given scope instead of
// the one the session was built with. This is what lets a service
// hold one long-lived session and still attribute each delta
// request's work to that request's scope. nil detaches.
func (s *SPSTA) SetObs(scope *obs.Scope) {
	s.a.Obs = scope
	// ComputeNode reads the metrics handle off the result's grid and
	// its stored t.o.p. functions (the dist kernels have no config
	// struct), so the re-attachment must rewrite them there too.
	s.res.SetMetrics(scope.M())
}

func stateClose(a, b *core.NetState, eps float64) bool {
	for v := range a.P {
		if math.Abs(a.P[v]-b.P[v]) > eps {
			return false
		}
	}
	// The pruning certificate is part of the state: a stale consumed
	// budget could under-report the certified deviation of a cone
	// whose fanins re-spent their budgets differently, so budget
	// changes propagate like value changes.
	if math.Abs(a.PrunedMass-b.PrunedMass) > eps || math.Abs(a.Budget-b.Budget) > eps {
		return false
	}
	for d := range a.TOP {
		pa, pb := a.TOP[d], b.TOP[d]
		if (pa == nil) != (pb == nil) {
			return false
		}
		if pa == nil {
			continue
		}
		if !pa.Grid().Equal(pb.Grid()) {
			return false
		}
		// Bins outside both supports are exactly zero on both sides.
		lo, hi := pa.Support()
		if blo, bhi := pb.Support(); blo < bhi {
			if lo == hi {
				lo, hi = blo, bhi
			} else {
				lo, hi = min(lo, blo), max(hi, bhi)
			}
		}
		for i := lo; i < hi; i++ {
			if math.Abs(pa.W(i)-pb.W(i)) > eps {
				return false
			}
		}
	}
	return true
}
