package mickey

import (
	"math/rand"
	"testing"

	"repro/internal/bitslice"
)

// The compiled circuit and the bitsliced engine's generated clock must
// implement the identical CLOCK_KG transition.
func TestCircuitMatchesHandEngine(t *testing.T) {
	rng := rand.New(rand.NewSource(55))
	keys := make([][]byte, 64)
	ivs := make([][]byte, 64)
	for l := range keys {
		keys[l] = make([]byte, KeySize)
		ivs[l] = make([]byte, 10)
		rng.Read(keys[l])
		rng.Read(ivs[l])
	}
	sl, err := NewSlicedVec[bitslice.V64](keys, ivs, 80)
	if err != nil {
		t.Fatal(err)
	}
	prog := BuildClockCircuit(false)
	if prog.Inputs() != 201 || prog.Outputs() != 201 {
		t.Fatalf("circuit shape %d/%d", prog.Inputs(), prog.Outputs())
	}

	in := make([]uint64, 201)
	out := make([]uint64, 201)
	scratch := make([]uint64, prog.ScratchLen())
	for step := 0; step < 50; step++ {
		for i := 0; i < 100; i++ {
			in[i] = sl.r[i]
			in[100+i] = sl.s[i]
		}
		in[200] = 0 // keystream mode input
		prog.Run(in, out, scratch)

		z := sl.r[0] ^ sl.s[0]
		sl.clockKG(false, 0)
		if out[200] != z {
			t.Fatalf("step %d: circuit z %x, hand z %x", step, out[200], z)
		}
		for i := 0; i < 100; i++ {
			if out[i] != sl.r[i] {
				t.Fatalf("step %d: r[%d] differs", step, i)
			}
			if out[100+i] != sl.s[i] {
				t.Fatalf("step %d: s[%d] differs", step, i)
			}
		}
	}
}

// The mixing-mode circuit must match the reference initialization clock.
func TestMixingCircuitMatchesRef(t *testing.T) {
	prog := BuildClockCircuit(true)
	ref := &Ref{}
	rng := rand.New(rand.NewSource(77))
	for i := range ref.R {
		ref.R[i] = uint8(rng.Intn(2))
		ref.S[i] = uint8(rng.Intn(2))
	}
	// Mirror the reference state into lane 0 of the circuit inputs.
	in := make([]uint64, 201)
	out := make([]uint64, 201)
	for step := 0; step < 30; step++ {
		for i := 0; i < 100; i++ {
			in[i] = uint64(ref.R[i])
			in[100+i] = uint64(ref.S[i])
		}
		inputBit := uint8(rng.Intn(2))
		in[200] = uint64(inputBit)
		prog.Run(in, out, nil)
		ref.ClockKG(true, inputBit)
		for i := 0; i < 100; i++ {
			if uint8(out[i]&1) != ref.R[i] || uint8(out[100+i]&1) != ref.S[i] {
				t.Fatalf("step %d: mixing transition differs at bit %d", step, i)
			}
		}
	}
}

func TestCircuitGateBudget(t *testing.T) {
	// The paper's §4.4 emphasizes that the generated MICKEY step is pure
	// bit logic; assert the circuit stays in a sane gate envelope so
	// regressions in the generator are caught.
	prog := BuildClockCircuit(false)
	if prog.ScratchLen() > 1500 {
		t.Errorf("clock circuit uses %d registers — generator regression?", prog.ScratchLen())
	}
}

// Ablation: the shipped engine, whose clock is generated straight-line
// code, vs the same transition run as an interpreted circuit program.
func BenchmarkCircuitVsHand(b *testing.B) {
	rng := rand.New(rand.NewSource(9))
	keys := make([][]byte, 64)
	ivs := make([][]byte, 64)
	for l := range keys {
		keys[l] = make([]byte, KeySize)
		ivs[l] = make([]byte, 10)
		rng.Read(keys[l])
		rng.Read(ivs[l])
	}

	b.Run("generated", func(b *testing.B) {
		sl, _ := NewSlicedVec[bitslice.V64](keys, ivs, 80)
		b.SetBytes(8) // 64 bits per clock
		for i := 0; i < b.N; i++ {
			sl.clockKG(false, 0)
		}
	})
	b.Run("circuit", func(b *testing.B) {
		sl, _ := NewSlicedVec[bitslice.V64](keys, ivs, 80)
		prog := BuildClockCircuit(false)
		in := make([]uint64, 201)
		out := make([]uint64, 201)
		scratch := make([]uint64, prog.ScratchLen())
		for i := 0; i < 100; i++ {
			in[i] = sl.r[i]
			in[100+i] = sl.s[i]
		}
		b.SetBytes(8)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			prog.Run(in, out, scratch)
			copy(in[0:100], out[0:100])
			copy(in[100:200], out[100:200])
		}
	})
}
