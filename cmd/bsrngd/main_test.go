package main

import "testing"

func TestRunRouterUsage(t *testing.T) {
	if err := runRouter(":0", "", 0); err == nil {
		t.Error("-router without -ring accepted")
	}
	if err := runRouter(":0", t.TempDir()+"/missing.json", 0); err == nil {
		t.Error("missing ring file accepted")
	}
}
