// Package fp seeds failpoint-name violations against the real
// faultinject registry.
package fp

import "repro/internal/faultinject"

const fpCorrupt = "fp.segment.corrupt"

type worker struct {
	fpCheckout string
}

func newWorker(alg string) *worker {
	return &worker{fpCheckout: "fp.checkout.fail." + alg}
}

func Work() {
	if faultinject.Hit(fpCorrupt) {
		return
	}
	if faultinject.Hit("fp.short") { // want `does not follow <pkg>.<site>.<effect>`
		return
	}
	if faultinject.Hit("other.site.effect") { // want `claims package "other" but lives in package "fp"`
		return
	}
	if faultinject.Hit("fp.Bad_Case.effect") { // want `malformed component "Bad_Case"`
		return
	}
}

func (w *worker) Run() bool {
	return faultinject.Hit(w.fpCheckout)
}

// screen hits the failpoint each caller names, in the caller's package.
func screen(fp string) bool { return faultinject.Hit(fp) }

func Screened() {
	screen("fp.screen.corrupt")
	screen("other.screen.corrupt") // want `claims package "other" but lives in package "fp"`
}
