package fp

import (
	"testing"

	"repro/internal/faultinject"
)

func TestCorrupt(t *testing.T) {
	faultinject.Arm(fpCorrupt, 1)
	defer faultinject.Reset()
	Work()
}

func TestScoped(t *testing.T) {
	fpName := "fp.checkout.fail." + "mickey"
	faultinject.Arm(fpName, 1)
	defer faultinject.Reset()
	newWorker("mickey").Run()
}

func TestDead(t *testing.T) {
	faultinject.Arm("fp.orphan.effect", 1) // want `dead failpoint`
	defer faultinject.Reset()
	Work()
}

func TestForwarded(t *testing.T) {
	faultinject.Arm("fp.screen.corrupt", 1)
	defer faultinject.Reset()
	Screened()
}
