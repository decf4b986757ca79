package mickey

import "repro/internal/circuit"

// BuildClockCircuit generates the full CLOCK_KG step as a boolean circuit
// — the automated bit-level code generation of paper §4.4 ("the bitsliced
// MICKEY implementation code is generated by a higher-level transcript"),
// realized with this repository's circuit compiler instead of the paper's
// Python emitter.
//
// Inputs (201 words): r0..r99, s0..s99, input bit.
// Outputs (201 words): r'0..r'99, s'0..s'99, z (computed from the old
// state, matching ClockVec's emit-then-clock order).
//
// The Sliced engine's clockKG, generated as straight-line Go from the same
// tables (clockkg_gen.go), is cross-validated against this compiled
// circuit in the tests; the BenchmarkCircuitVsHand ablation measures what
// generating code buys over interpreting the circuit program.
func BuildClockCircuit(mixing bool) *circuit.Program {
	b := circuit.NewBuilder()
	r := make([]circuit.Gate, regBits)
	s := make([]circuit.Gate, regBits)
	for i := range r {
		r[i] = b.Input()
	}
	for i := range s {
		s[i] = b.Input()
	}
	input := b.Input()

	ctrlR := b.Xor(s[34], r[67])
	ctrlS := b.Xor(s[67], r[33])
	inputR := input
	if mixing {
		inputR = b.Xor(input, s[50])
	}
	fbR := b.Xor(r[99], inputR)

	isTap := make([]bool, regBits)
	for _, t := range rtaps {
		isTap[t] = true
	}
	nr := make([]circuit.Gate, regBits)
	for i := 0; i < regBits; i++ {
		var g circuit.Gate
		if i == 0 {
			g = b.And(r[0], ctrlR)
		} else {
			g = b.Xor(r[i-1], b.And(r[i], ctrlR))
		}
		if isTap[i] {
			g = b.Xor(g, fbR)
		}
		nr[i] = g
	}

	fbS := b.Xor(s[99], input)
	fb0 := b.And(fbS, b.Not(ctrlS))
	fb1 := b.And(fbS, ctrlS)
	zero := b.Const(0)
	term := func(i int) circuit.Gate {
		f0, f1 := maskBit(&sMask0, i), maskBit(&sMask1, i)
		switch {
		case f0 == 1 && f1 == 1:
			return fbS
		case f0 == 1:
			return fb0
		case f1 == 1:
			return fb1
		}
		return zero
	}
	ns := make([]circuit.Gate, regBits)
	ns[0] = term(0)
	for i := 1; i < 99; i++ {
		a := b.Xor(s[i], b.Const(maskBit(&comp0, i)))
		c := b.Xor(s[i+1], b.Const(maskBit(&comp1, i)))
		ns[i] = b.Xor(b.Xor(s[i-1], b.And(a, c)), term(i))
	}
	ns[99] = b.Xor(s[98], term(99))

	z := b.Xor(r[0], s[0])

	outs := make([]circuit.Gate, 0, 2*regBits+1)
	outs = append(outs, nr...)
	outs = append(outs, ns...)
	outs = append(outs, z)
	return b.Compile(outs)
}
