package certify

import (
	"encoding/json"
	"fmt"
	"io"

	"repro/internal/sp80022"
)

// TestResult is one SP 800-22 test's Table 3 row for one cell.
type TestResult struct {
	Name       string  `json:"name"`
	Streams    int     `json:"streams"` // contributing p-values
	Uniformity float64 `json:"uniformity"`
	Proportion float64 `json:"proportion"`
	// Retried marks a §4.2 second-opinion result: the first sample was
	// marginal and this row is from a fresh sample of the same stream.
	Retried bool `json:"retried,omitempty"`
	Pass    bool `json:"pass"`
}

// Cell is one algorithm's entry of the certification matrix. Lanes is
// the datapath width, 64, of a boot-mode cell; 0 marks a dial-mode cell,
// whose server-side width is not locally known.
type Cell struct {
	Algorithm      string       `json:"algorithm"`
	Lanes          int          `json:"lanes,omitempty"`
	Segments       int          `json:"segments"`
	Bytes          int          `json:"bytes"`
	CrossChecked   bool         `json:"cross_checked"`
	CrossCheckOK   bool         `json:"cross_check_ok"`
	HealthFailures int          `json:"health_failures"`
	Retried        bool         `json:"retried,omitempty"`
	Tests          []TestResult `json:"tests,omitempty"`
	Skipped        []string     `json:"skipped,omitempty"`
	Error          string       `json:"error,omitempty"`
	Pass           bool         `json:"pass"`
}

// Report is the machine-readable certification outcome (CERTIFY.json).
type Report struct {
	Mode          string  `json:"mode"` // "boot" or "dial"
	Seed          uint64  `json:"seed"`
	Segments      int     `json:"segments"`
	Streams       int     `json:"streams"`
	BitsPerStream int     `json:"bits_per_stream"`
	Alpha         float64 `json:"alpha"`
	Cells         []Cell  `json:"cells"`
	Pass          bool    `json:"pass"`
}

func (r *Report) add(c Cell) {
	r.Alpha = sp80022.Alpha
	r.Cells = append(r.Cells, c)
	if !c.Pass {
		r.Pass = false
	}
}

// WriteJSON emits the report as indented JSON.
func (r *Report) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(r)
}

// WriteMarkdown renders the report for humans: the pass/fail matrix,
// then a per-cell Table 3 with any skipped tests and errors.
func (r *Report) WriteMarkdown(w io.Writer) error {
	status := "PASS"
	if !r.Pass {
		status = "FAIL"
	}
	fmt.Fprintf(w, "# Served-path certification: %s\n\n", status)
	fmt.Fprintf(w, "mode %s, seed %d, %d segments/cell, %d streams × %d bits, α=%.2f\n\n",
		r.Mode, r.Seed, r.Segments, r.Streams, r.BitsPerStream, r.Alpha)

	// Matrix: one row per cell, under the lane label all cells of a run
	// share.
	label := ""
	if len(r.Cells) > 0 {
		label = laneLabel(r.Cells[0].Lanes)
	}
	fmt.Fprintf(w, "| algorithm | %s |\n|---|---|\n", label)
	for _, c := range r.Cells {
		mark := "❌"
		if c.Pass {
			mark = "✅"
		}
		fmt.Fprintf(w, "| %s | %s |\n", c.Algorithm, mark)
	}
	fmt.Fprintln(w)

	for _, c := range r.Cells {
		fmt.Fprintf(w, "## %s · %s\n\n", c.Algorithm, laneLabel(c.Lanes))
		if c.Error != "" {
			fmt.Fprintf(w, "**error:** %s\n\n", c.Error)
			continue
		}
		cross := "skipped"
		if c.CrossChecked {
			cross = "FAIL"
			if c.CrossCheckOK {
				cross = "ok"
			}
		}
		fmt.Fprintf(w, "%d bytes served; library cross-check %s; %d health failures\n\n",
			c.Bytes, cross, c.HealthFailures)
		fmt.Fprintln(w, "| test | uniformity | proportion | result |")
		fmt.Fprintln(w, "|---|---|---|---|")
		for _, tr := range c.Tests {
			verdict := "FAIL"
			if tr.Pass {
				verdict = "Success"
			}
			if tr.Retried {
				verdict += " (re-tested)"
			}
			fmt.Fprintf(w, "| %s | %.6f | %.4f | %s |\n", tr.Name, tr.Uniformity, tr.Proportion, verdict)
		}
		if len(c.Skipped) > 0 {
			fmt.Fprintf(w, "\nskipped (not applicable at %d bits/stream): ", r.BitsPerStream)
			for i, name := range c.Skipped {
				if i > 0 {
					fmt.Fprint(w, ", ")
				}
				fmt.Fprint(w, name)
			}
			fmt.Fprintln(w)
		}
		fmt.Fprintln(w)
	}
	return nil
}

func laneLabel(lanes int) string {
	if lanes == 0 {
		return "server"
	}
	return fmt.Sprintf("%d lanes", lanes)
}
