package mickey

import (
	"bytes"
	"flag"
	"fmt"
	"go/ast"
	"go/format"
	"go/parser"
	"go/token"
	"os"
	"testing"
)

// The straight-line Sliced.clockKG in clockkg_gen.go is generated from
// the cipher tables of mickey.go by genClockKG (paper §4.4: the bitsliced
// MICKEY kernel "is generated by a higher-level transcript").
// TestClockKGGenerated keeps the committed file in step with the tables;
// `go test ./internal/mickey -run TestClockKGGenerated -update` rewrites it.

var update = flag.Bool("update", false, "rewrite clockkg_gen.go from the cipher tables")

const genFile = "clockkg_gen.go"

// clockTables are the table bits genClockKG folds into code.
type clockTables struct {
	rtaps                        []int
	comp0, comp1, sMask0, sMask1 [4]uint32
}

func specTables() clockTables {
	return clockTables{rtaps[:], comp0, comp1, sMask0, sMask1}
}

// genClockKG emits clockkg_gen.go, one straight-line function in which
// every table bit is decided here, not at run time:
//
//   - a tap i ∈ RTAPS appends `^ fbR` to nr[i], other indices nothing;
//   - COMP0/COMP1 bit pairs pick the operand form of (s_i ^ c0) & (s_i+1 ^ c1):
//     `a & b`, `b &^ a`, `a &^ b` or `^(a | b)`;
//   - the FB0/FB1 pair picks the S feedback term: nothing, fbS, fb0 =
//     fbS &^ ctrlS or fb1 = fbS & ctrlS, the latter two computed once per
//     clock.
//
// Planes are indexed in place rather than copied into locals: each index
// then has one use per statement, which amd64 folds into a memory operand,
// and the sliding-window locals measured about 1.4× slower.
func genClockKG(tb clockTables) ([]byte, error) {
	isTap := make([]bool, regBits)
	for _, t := range tb.rtaps {
		isTap[t] = true
	}
	term := func(i int) string {
		switch f0, f1 := maskBit(&tb.sMask0, i), maskBit(&tb.sMask1, i); {
		case f0 == 1 && f1 == 1:
			return "fbS"
		case f0 == 1:
			return "fb0"
		case f1 == 1:
			return "fb1"
		}
		return ""
	}

	var b bytes.Buffer
	p := func(format string, args ...any) { fmt.Fprintf(&b, format+"\n", args...) }
	p("package mickey")
	p("// clockKG advances all lanes one generator step. input carries one input")
	p("// bit per lane. The RTAPS, COMP0, COMP1, FB0 and FB1 bits are folded into")
	p("// the code, so a clock costs only the operations whose table bit is")
	p("// set, and the register shift is the nr/ns ping-pong swap.")
	p("func (m *Sliced) clockKG(mixing bool, in uint64) {")
	p("r, s, nr, ns := m.r, m.s, m.nr, m.ns")
	p("ctrlR := s[34] ^ r[67]")
	p("ctrlS := s[67] ^ r[33]")
	p("fbR := r[99] ^ in")
	p("if mixing {")
	p("fbR ^= s[50]")
	p("}")
	p("fbS := s[99] ^ in")
	p("fb0 := fbS &^ ctrlS")
	p("fb1 := fbS & ctrlS")

	p("\n// CLOCK_R: nr_i = r_i-1 ^ r_i&ctrlR, ^ fbR at the taps.")
	for i := 0; i < regBits; i++ {
		e := fmt.Sprintf("r[%d] & ctrlR", i)
		if i > 0 {
			e = fmt.Sprintf("r[%d] ^ %s", i-1, e)
		}
		if isTap[i] {
			e += " ^ fbR"
		}
		p("nr[%d] = %s", i, e)
	}

	p("\n// CLOCK_S: ns_i = s_i-1 ^ (s_i^COMP0_i)&(s_i+1^COMP1_i) ^ feedback term.")
	t0 := term(0)
	if t0 == "" {
		t0 = "0"
	}
	p("ns[0] = %s", t0)
	for i := 1; i < regBits; i++ {
		e := fmt.Sprintf("s[%d]", i-1)
		if i < regBits-1 {
			a, c := fmt.Sprintf("s[%d]", i), fmt.Sprintf("s[%d]", i+1)
			var comp string
			switch maskBit(&tb.comp0, i)<<1 | maskBit(&tb.comp1, i) {
			case 0:
				comp = a + " & " + c
			case 2:
				comp = c + " &^ " + a
			case 1:
				comp = a + " &^ " + c
			case 3:
				comp = "^(" + a + " | " + c + ")"
			}
			e += " ^ " + comp
		}
		if t := term(i); t != "" {
			e += " ^ " + t
		}
		p("ns[%d] = %s", i, e)
	}
	p("m.r, m.nr = nr, r")
	p("m.s, m.ns = ns, s")
	p("}")

	body, err := format.Source(b.Bytes())
	if err != nil {
		return nil, err
	}
	ops, err := countWordOps(body)
	if err != nil {
		return nil, err
	}
	var out bytes.Buffer
	fmt.Fprintf(&out, "// Code generated by genClockKG in gen_test.go; DO NOT EDIT.\n")
	fmt.Fprintf(&out, "// Regenerate: go test ./internal/mickey -run TestClockKGGenerated -update\n")
	fmt.Fprintf(&out, "//\n// Word ops per clock and 64 lanes (XOR, AND, AND-NOT, OR, NOT; loads and\n")
	fmt.Fprintf(&out, "// stores not counted), keystream mode: %d. Mixing adds one.\n\n", ops)
	out.Write(body)
	return out.Bytes(), nil
}

// countWordOps counts the bitwise operators clockKG executes with mixing
// off: every binary ^ & &^ | and unary ^ in its body, outside the
// `if mixing` block.
func countWordOps(src []byte) (int, error) {
	f, err := parser.ParseFile(token.NewFileSet(), genFile, src, 0)
	if err != nil {
		return 0, err
	}
	if len(f.Decls) != 1 {
		return 0, fmt.Errorf("%s: want one declaration, got %d", genFile, len(f.Decls))
	}
	fn, ok := f.Decls[0].(*ast.FuncDecl)
	if !ok {
		return 0, fmt.Errorf("%s: no clock function", genFile)
	}
	ops := 0
	ast.Inspect(fn.Body, func(n ast.Node) bool {
		switch e := n.(type) {
		case *ast.IfStmt:
			return false
		case *ast.BinaryExpr:
			switch e.Op {
			case token.XOR, token.AND, token.AND_NOT, token.OR:
				ops++
			}
		case *ast.UnaryExpr:
			if e.Op == token.XOR {
				ops++
			}
		}
		return true
	})
	return ops, nil
}

func TestClockKGGenerated(t *testing.T) {
	want, err := genClockKG(specTables())
	if err != nil {
		t.Fatal(err)
	}
	if *update {
		if err := os.WriteFile(genFile, want, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	got, err := os.ReadFile(genFile)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("%s differs from what the cipher tables generate; rerun with -update", genFile)
	}
}

// Every table bit must reach the generated code: flipping any one of them
// changes the output.
func TestClockKGGeneratorUsesEveryTableBit(t *testing.T) {
	base, err := genClockKG(specTables())
	if err != nil {
		t.Fatal(err)
	}
	flip := func(name string, mutate func(*clockTables)) {
		tb := specTables()
		tb.rtaps = append([]int(nil), tb.rtaps...)
		mutate(&tb)
		got, err := genClockKG(tb)
		if err != nil {
			t.Fatal(err)
		}
		if bytes.Equal(got, base) {
			t.Errorf("flipping %s leaves the generated clock unchanged", name)
		}
	}
	for i := 0; i < regBits; i++ {
		w, m := i>>5, uint32(1)<<uint(i&31)
		if i > 0 && i < regBits-1 {
			flip(fmt.Sprintf("COMP0[%d]", i), func(tb *clockTables) { tb.comp0[w] ^= m })
			flip(fmt.Sprintf("COMP1[%d]", i), func(tb *clockTables) { tb.comp1[w] ^= m })
		}
		flip(fmt.Sprintf("FB0[%d]", i), func(tb *clockTables) { tb.sMask0[w] ^= m })
		flip(fmt.Sprintf("FB1[%d]", i), func(tb *clockTables) { tb.sMask1[w] ^= m })
	}
	flip("RTAPS[0]", func(tb *clockTables) { tb.rtaps = tb.rtaps[1:] })
	flip("RTAPS+2", func(tb *clockTables) { tb.rtaps = append(tb.rtaps, 2) })
}
