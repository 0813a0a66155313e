package logic

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestSettleOpANDTable(t *testing.T) {
	cases := []struct {
		in  []Value
		out Value
		op  Op
	}{
		{[]Value{Rise, One}, Rise, OpMax},
		{[]Value{Rise, Rise}, Rise, OpMax},
		{[]Value{Fall, One}, Fall, OpMin},
		{[]Value{Fall, Fall}, Fall, OpMin},
		{[]Value{Rise, Fall}, Zero, OpNone},
		{[]Value{Rise, Zero}, Zero, OpNone},
		{[]Value{One, One}, One, OpNone},
	}
	for _, c := range cases {
		out, op := And.SettleOp(c.in)
		if out != c.out || op != c.op {
			t.Errorf("And.SettleOp(%v) = %v,%v, want %v,%v", c.in, out, op, c.out, c.op)
		}
	}
}

func TestSettleOpORTable(t *testing.T) {
	cases := []struct {
		in  []Value
		out Value
		op  Op
	}{
		{[]Value{Rise, Zero}, Rise, OpMin},
		{[]Value{Rise, Rise}, Rise, OpMin},
		{[]Value{Fall, Zero}, Fall, OpMax},
		{[]Value{Fall, Fall}, Fall, OpMax},
		{[]Value{Rise, Fall}, One, OpNone},
	}
	for _, c := range cases {
		out, op := Or.SettleOp(c.in)
		if out != c.out || op != c.op {
			t.Errorf("Or.SettleOp(%v) = %v,%v, want %v,%v", c.in, out, op, c.out, c.op)
		}
	}
}

func TestSettleOpInvertedGates(t *testing.T) {
	// NAND: output rises when the first input falls (controlling 0
	// arrives), falls when the last input rises.
	if out, op := Nand.SettleOp([]Value{Fall, One}); out != Rise || op != OpMin {
		t.Errorf("Nand.SettleOp(f,1) = %v,%v, want r,min", out, op)
	}
	if out, op := Nand.SettleOp([]Value{Rise, Rise}); out != Fall || op != OpMax {
		t.Errorf("Nand.SettleOp(r,r) = %v,%v, want f,max", out, op)
	}
	// NOR: output rises when the last input falls, falls when the
	// first input rises.
	if out, op := Nor.SettleOp([]Value{Fall, Fall}); out != Rise || op != OpMax {
		t.Errorf("Nor.SettleOp(f,f) = %v,%v, want r,max", out, op)
	}
	if out, op := Nor.SettleOp([]Value{Rise, Zero}); out != Fall || op != OpMin {
		t.Errorf("Nor.SettleOp(r,0) = %v,%v, want f,min", out, op)
	}
}

func TestSettleOpParity(t *testing.T) {
	// A single switching input toggles XOR at that input's time.
	if out, op := Xor.SettleOp([]Value{Rise, One}); out != Fall || op != OpMax {
		t.Errorf("Xor.SettleOp(r,1) = %v,%v, want f,max", out, op)
	}
	// Two switching inputs of any direction leave parity unchanged.
	if out, _ := Xor.SettleOp([]Value{Rise, Rise}); out.Switching() {
		t.Errorf("Xor.SettleOp(r,r) switches: %v", out)
	}
	if out, _ := Xor.SettleOp([]Value{Rise, Fall}); out.Switching() {
		t.Errorf("Xor.SettleOp(r,f) switches: %v", out)
	}
	// Three switching inputs settle at the last one.
	if out, op := Xor.SettleOp([]Value{Rise, Rise, Rise}); out != Rise || op != OpMax {
		t.Errorf("Xor.SettleOp(r,r,r) = %v,%v, want r,max", out, op)
	}
}

func TestSettleTimeEventWalk(t *testing.T) {
	// AND with rises at 1 and 3: output rises at 3 (MAX), no glitch.
	out, tt, gl, ok := And.SettleTime([]Value{Rise, Rise}, []float64{1, 3})
	if !ok || out != Rise || tt != 3 || gl != 0 {
		t.Errorf("And r@1,r@3: out=%v t=%v gl=%d ok=%v", out, tt, gl, ok)
	}
	// AND with falls at 1 and 3: output falls at 1 (MIN).
	out, tt, _, ok = And.SettleTime([]Value{Fall, Fall}, []float64{1, 3})
	if !ok || out != Fall || tt != 1 {
		t.Errorf("And f@1,f@3: out=%v t=%v ok=%v", out, tt, ok)
	}
	// AND with r@1 and f@3 glitches high then returns low: no
	// settled transition, one pulse = two output changes.
	out, _, gl, ok = And.SettleTime([]Value{Rise, Fall}, []float64{1, 3})
	if ok || out != Zero || gl != 2 {
		t.Errorf("And r@1,f@3: out=%v gl=%d ok=%v", out, gl, ok)
	}
	// Same values with the fall first: output stays zero throughout.
	out, _, gl, ok = And.SettleTime([]Value{Rise, Fall}, []float64{3, 1})
	if ok || out != Zero || gl != 0 {
		t.Errorf("And r@3,f@1: out=%v gl=%d ok=%v", out, gl, ok)
	}
	// XOR with three rises settles at the last rise with a glitch
	// pulse in between (0->1->0->1: three changes, one filtered).
	out, tt, gl, ok = Xor.SettleTime([]Value{Rise, Rise, Rise}, []float64{2, 1, 3})
	if !ok || out != Rise || tt != 3 || gl != 2 {
		t.Errorf("Xor r@2,r@1,r@3: out=%v t=%v gl=%d ok=%v", out, tt, gl, ok)
	}
}

func TestSettleTimeLengthMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("no panic on length mismatch")
		}
	}()
	And.SettleTime([]Value{Rise, Rise}, []float64{1})
}

// TestSettleOpMatchesEventWalk property-tests the closed-form
// SettleOp rules against the explicit event-ordering semantics for
// random gates, values and arrival times.
func TestSettleOpMatchesEventWalk(t *testing.T) {
	gates := []GateType{Buf, Not, And, Nand, Or, Nor, Xor, Xnor}
	rng := rand.New(rand.NewSource(7))
	f := func(raw []uint8, gi uint8) bool {
		if len(raw) == 0 {
			return true
		}
		g := gates[int(gi)%len(gates)]
		n := len(raw)
		if n > 6 {
			n = 6
		}
		if g.MaxFanin() == 1 {
			n = 1
		}
		if n < g.MinFanin() {
			return true
		}
		in := make([]Value, n)
		times := make([]float64, n)
		for i := 0; i < n; i++ {
			in[i] = Value(raw[i] % NumValues)
			times[i] = rng.NormFloat64()
		}
		wantOut, wantT, _, wantOK := g.SettleTime(in, times)
		out, op := g.SettleOp(in)
		if out != wantOut {
			return false
		}
		if !wantOK {
			return op == OpNone
		}
		if op == OpNone {
			return false
		}
		got := combine(op, in, times)
		return got == wantT
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 5000}); err != nil {
		t.Error(err)
	}
}

func combine(op Op, in []Value, times []float64) float64 {
	first := true
	acc := 0.0
	for i, v := range in {
		if !v.Switching() {
			continue
		}
		if first {
			acc = times[i]
			first = false
			continue
		}
		if op == OpMin && times[i] < acc {
			acc = times[i]
		}
		if op == OpMax && times[i] > acc {
			acc = times[i]
		}
	}
	return acc
}

func TestInputStatsSampleDistribution(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	s := SkewedStats()
	const n = 200000
	var counts [NumValues]int
	var sum, sumsq float64
	var nt int
	for i := 0; i < n; i++ {
		v := s.ValueAt(rng.Float64())
		counts[v]++
		if v.Switching() {
			tt := s.ArrivalAt(rng.NormFloat64())
			sum += tt
			sumsq += tt * tt
			nt++
		}
	}
	for v := Zero; v < NumValues; v++ {
		got := float64(counts[v]) / n
		if diff := got - s.P[v]; diff > 0.01 || diff < -0.01 {
			t.Errorf("P[%v]: sampled %v, want %v", v, got, s.P[v])
		}
	}
	mean := sum / float64(nt)
	variance := sumsq/float64(nt) - mean*mean
	if mean > 0.05 || mean < -0.05 {
		t.Errorf("sampled transition mean %v, want ~0", mean)
	}
	if variance > 1.1 || variance < 0.9 {
		t.Errorf("sampled transition variance %v, want ~1", variance)
	}
}

func TestOpString(t *testing.T) {
	if OpNone.String() != "none" || OpMin.String() != "min" || OpMax.String() != "max" {
		t.Error("Op.String wrong")
	}
	if Op(9).String() == "" {
		t.Error("out-of-range Op has empty String")
	}
}
