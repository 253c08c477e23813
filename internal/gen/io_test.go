package gen

import (
	"os"
	"path/filepath"
	"testing"

	"hoyan/internal/behavior"
	"hoyan/internal/core"
)

// TestWriteLoadRoundTrip: a WAN written and loaded back keeps every node
// attribute and assembles to a model that diffs empty against the
// generated one, so a baseline taken from either replays against the
// other instead of invalidating fully.
func TestWriteLoadRoundTrip(t *testing.T) {
	w := mustGen(t, Medium())
	dir := t.TempDir()
	if err := w.WriteDir(dir); err != nil {
		t.Fatal(err)
	}
	net, snap, err := LoadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if net.NumNodes() != w.Net.NumNodes() || net.NumLinks() != w.Net.NumLinks() {
		t.Fatalf("topology mismatch: %d/%d vs %d/%d", net.NumNodes(), net.NumLinks(), w.Net.NumNodes(), w.Net.NumLinks())
	}
	if len(snap) != len(w.Snap) {
		t.Fatalf("snapshot size %d vs %d", len(snap), len(w.Snap))
	}
	for name, d := range w.Snap {
		got := snap[name]
		if got == nil || got.Vendor != d.Vendor || len(got.BGP.Neighbors) != len(d.BGP.Neighbors) {
			t.Fatalf("config %s did not round-trip", name)
		}
	}
	// Node attributes preserved.
	for _, n := range w.Net.Nodes() {
		got, ok := net.NodeByName(n.Name)
		if !ok || got.AS != n.AS || got.Vendor != n.Vendor || got.Group != n.Group || got.Region != n.Region || got.Role != n.Role {
			t.Fatalf("node %s attrs lost", n.Name)
		}
	}
	loaded, err := core.Assemble(net, snap, behavior.TrueProfiles())
	if err != nil {
		t.Fatal(err)
	}
	if d := core.Diff(assemble(t, w), loaded); !d.Empty() {
		t.Fatalf("round trip diffs: %v", d.Items)
	}
}

func TestLoadDirErrors(t *testing.T) {
	dir := t.TempDir()
	if _, _, err := LoadDir(dir); err == nil {
		t.Fatal("missing topology.txt must fail")
	}
	os.WriteFile(filepath.Join(dir, "topology.txt"), []byte("node a\nlink a b 10\n"), 0o644)
	if _, _, err := LoadDir(dir); err == nil {
		t.Fatal("unknown endpoint must fail")
	}
	os.WriteFile(filepath.Join(dir, "topology.txt"), []byte("node a\n"), 0o644)
	if _, _, err := LoadDir(dir); err == nil {
		t.Fatal("missing config must fail")
	}
	os.WriteFile(filepath.Join(dir, "a.cfg"), []byte("hostname a\n"), 0o644)
	if _, _, err := LoadDir(dir); err != nil {
		t.Fatalf("minimal load: %v", err)
	}
	os.WriteFile(filepath.Join(dir, "topology.txt"), []byte("frob a\n"), 0o644)
	if _, _, err := LoadDir(dir); err == nil {
		t.Fatal("bad directive must fail")
	}
}
