package main

import (
	"bytes"
	"errors"
	"fmt"
	"net"
	"net/http/httptest"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strings"
	"testing"

	"hoyan"
	"hoyan/internal/dist"
	"hoyan/internal/gen"
	"hoyan/internal/httpapi"
)

// bin is the hoyan binary built once for every test.
var bin string

func TestMain(m *testing.M) {
	tmp, err := os.MkdirTemp("", "hoyan-cli-")
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	bin = filepath.Join(tmp, "hoyan")
	if out, err := exec.Command("go", "build", "-o", bin, ".").CombinedOutput(); err != nil {
		fmt.Fprintf(os.Stderr, "building hoyan: %v\n%s", err, out)
		os.Exit(1)
	}
	code := m.Run()
	os.RemoveAll(tmp)
	os.Exit(code)
}

// exampleNet copies the committed example network into a fresh directory.
func exampleNet(t *testing.T) string {
	t.Helper()
	src := filepath.Join("..", "..", "examples", "networks", "small")
	dst := t.TempDir()
	entries, err := os.ReadDir(src)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		raw, err := os.ReadFile(filepath.Join(src, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dst, e.Name()), raw, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return dst
}

// edit rewrites one config file of a network directory, replacing old
// (which must occur) with new.
func edit(t *testing.T, dir, router, old, new string) {
	t.Helper()
	path := filepath.Join(dir, router+".cfg")
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Contains(raw, []byte(old)) {
		t.Fatalf("%s: %q not found", path, old)
	}
	if err := os.WriteFile(path, bytes.Replace(raw, []byte(old), []byte(new), 1), 0o644); err != nil {
		t.Fatal(err)
	}
}

// dropGW0 makes gw-r0-0 announce nothing: its two prefixes become
// unreachable everywhere else, a policy edit with violations.
func dropGW0(t *testing.T, dir string) {
	t.Helper()
	edit(t, dir, "gw-r0-0", "  neighbor pe-r0-0 remote-as 64500\n",
		"  neighbor pe-r0-0 remote-as 64500\n  neighbor pe-r0-0 route-policy DROP out\n")
	edit(t, dir, "gw-r0-0", "  neighbor pe-r0-1 remote-as 64500\n",
		"  neighbor pe-r0-1 remote-as 64500\n  neighbor pe-r0-1 route-policy DROP out\nroute-policy DROP deny 10\n")
}

// hoyanCmd runs the binary and returns its stdout, stderr and exit code.
func hoyanCmd(t *testing.T, args ...string) (string, string, int) {
	t.Helper()
	var stdout, stderr bytes.Buffer
	cmd := exec.Command(bin, args...)
	cmd.Stdout, cmd.Stderr = &stdout, &stderr
	err := cmd.Run()
	var ee *exec.ExitError
	switch {
	case err == nil:
		return stdout.String(), stderr.String(), 0
	case errors.As(err, &ee):
		return stdout.String(), stderr.String(), ee.ExitCode()
	}
	t.Fatalf("hoyan %v: %v", args, err)
	return "", "", 0
}

// mustRun runs the binary and fails unless it exits with want.
func mustRun(t *testing.T, want int, args ...string) string {
	t.Helper()
	out, errOut, code := hoyanCmd(t, args...)
	if code != want {
		t.Fatalf("hoyan %v: exit %d, want %d\nstdout:\n%s\nstderr:\n%s", args, code, want, out, errOut)
	}
	return out
}

// startWorkers serves every network directory from two in-process
// workers on loopback and returns their -workers list.
func startWorkers(t *testing.T, dirs ...string) string {
	t.Helper()
	var addrs []string
	for i := 0; i < 2; i++ {
		var wk *dist.Worker
		for _, dir := range dirs {
			n, snap, err := gen.LoadDir(dir)
			if err != nil {
				t.Fatal(err)
			}
			if wk == nil {
				wk = dist.NewWorker(n, snap)
			} else {
				wk.AddModel(n, snap)
			}
		}
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		go wk.Serve(ln)
		t.Cleanup(func() { wk.Close() })
		addrs = append(addrs, ln.Addr().String())
	}
	return strings.Join(addrs, ",")
}

func verifier(t *testing.T, dir string) *hoyan.Verifier {
	t.Helper()
	n, err := hoyan.LoadDirectory(dir)
	if err != nil {
		t.Fatal(err)
	}
	v, err := n.Verifier(hoyan.Options{K: 3})
	if err != nil {
		t.Fatal(err)
	}
	return v
}

// violations returns the [violation] lines of a sweep's output.
func violations(out string) []string {
	var vs []string
	for _, line := range strings.Split(out, "\n") {
		if strings.HasPrefix(line, "[violation]") {
			vs = append(vs, line)
		}
	}
	return vs
}

func TestQueriesMatchVerifier(t *testing.T) {
	dir := exampleNet(t)
	v := verifier(t, dir)
	const p = "10.0.0.0/24"

	route, err := v.RouteReach(p, "pe-r1-0")
	if err != nil {
		t.Fatal(err)
	}
	want := fmt.Sprintf("route %s @ pe-r1-0: reachable=%v\n  breaks with %d failures: %v\n",
		p, route.Reachable, route.MinFailures, route.Witness)
	if got := mustRun(t, 0, "route", "-dir", dir, "-prefix", p, "-router", "pe-r1-0"); got != want {
		t.Errorf("route: got %q, want %q", got, want)
	}

	pkt, err := v.PacketReach(p, "pe-r1-0")
	if err != nil {
		t.Fatal(err)
	}
	want = fmt.Sprintf("packet pe-r1-0 -> %s (any announcer): reachable=%v min-failures=%d\n", p, pkt.Reachable, pkt.MinFailures)
	if got := mustRun(t, 0, "packet", "-dir", dir, "-prefix", p, "-src", "pe-r1-0"); got != want {
		t.Errorf("packet: got %q, want %q", got, want)
	}

	eq, err := v.RoleEquivalence("pe-r0-0", "pe-r1-0")
	if err != nil {
		t.Fatal(err)
	}
	if eq.Equivalent {
		t.Fatal("pe-r0-0 and pe-r1-0 sit in different regions and must diverge")
	}
	want = ""
	for _, d := range eq.Differences {
		want += "  " + d + "\n"
	}
	want += fmt.Sprintf("%d divergences\n", len(eq.Differences))
	if got := mustRun(t, 1, "equiv", "-dir", dir, "-a", "pe-r0-0", "-b", "pe-r1-0"); got != want {
		t.Errorf("equiv: got %q, want %q", got, want)
	}

	race, err := v.CheckRacing(p)
	if err != nil {
		t.Fatal(err)
	}
	if race.Ambiguous {
		t.Fatalf("racing %+v", race)
	}
	if got := mustRun(t, 0, "racing", "-dir", dir, "-prefix", p); got != "convergence is deterministic\n" {
		t.Errorf("racing: got %q", got)
	}

	if got := mustRun(t, 0, "audit", "-dir", dir); got != "audit complete: 0 violations\n" {
		t.Errorf("audit: got %q", got)
	}
}

// TestPacketAnyAnnouncer pins one packet-reachability rule on every
// front end: with two announcers, packets from reg1 reach the reg1
// gateway, which counts, although the first announcer is in reg0.
func TestPacketAnyAnnouncer(t *testing.T) {
	dir := exampleNet(t)
	edit(t, dir, "gw-r1-0", "  network 10.0.4.0/24\n", "  network 10.0.4.0/24\n  network 10.0.0.0/24\n")
	const p, src = "10.0.0.0/24", "pe-r1-0"

	v := verifier(t, dir)
	rep, err := v.PacketReach(p, src)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Reachable || rep.MinFailures == 0 {
		t.Fatalf("Verifier.PacketReach %+v, want reachable", rep)
	}
	want := fmt.Sprintf("packet %s -> %s (any announcer): reachable=true min-failures=%s\n", src, p, minStr(rep.MinFailures, 3))
	if got := mustRun(t, 0, "packet", "-dir", dir, "-prefix", p, "-src", src); got != want {
		t.Errorf("CLI: got %q, want %q", got, want)
	}

	n, snap, err := gen.LoadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	svc, err := httpapi.New(n, snap, 3)
	if err != nil {
		t.Fatal(err)
	}
	rec := httptest.NewRecorder()
	svc.Handler().ServeHTTP(rec, httptest.NewRequest("GET", "/v1/packet?prefix="+p+"&src="+src, nil))
	wantBody := fmt.Sprintf(`{"prefix":%q,"src":%q,"gateway":"gw-r0-0","reachable":true,"min_failures":%d}`+"\n", p, src, rep.MinFailures)
	if rec.Code != 200 || rec.Body.String() != wantBody {
		t.Errorf("/v1/packet: %d %s, want %s", rec.Code, rec.Body, wantBody)
	}

	// The audit names the origin conflict, through Verifier.AuditAll.
	viols, err := v.AuditAll(nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(viols) != 1 || viols[0].Kind != "conflict" {
		t.Fatalf("AuditAll: %v", viols)
	}
	want = fmt.Sprintf("%s\naudit complete: 1 violations\n", viols[0])
	if got := mustRun(t, 1, "audit", "-dir", dir); got != want {
		t.Errorf("audit: got %q, want %q", got, want)
	}
}

// TestUpdateDiffsAddedPrefix: `hoyan update` diffs best routes over the
// prefixes announced before or after the update, so a prefix the update
// adds shows up at every router that learns it.
func TestUpdateDiffsAddedPrefix(t *testing.T) {
	dir := exampleNet(t)
	out := mustRun(t, 0, "update", "-dir", dir, "-device", "gw-r0-0", "-lines", "router bgp 65001;  network 10.9.0.0/16")
	routers := len(verifier(t, dir).Routers())
	lines := strings.Split(strings.TrimSpace(out), "\n")
	if len(lines) != routers+1 || lines[routers] != fmt.Sprintf("update would change %d (prefix, router) selections", routers) {
		t.Fatalf("output:\n%s", out)
	}
	for _, l := range lines[:routers] {
		if !strings.HasPrefix(l, "[change] 10.9.0.0/16 @ ") || !strings.Contains(l, ": no route -> ") {
			t.Fatalf("unexpected change line %q", l)
		}
	}
}

func TestLocalSweepPlain(t *testing.T) {
	out := mustRun(t, 0, "sweep", "-dir", exampleNet(t))
	if !strings.Contains(out, "sweep: 8 prefixes in 4 classes") {
		t.Fatalf("output:\n%s", out)
	}
}

var (
	distPasses  = regexp.MustCompile(`modular: (\d+) region passes`)
	localPasses = regexp.MustCompile(`modular: \d+ regions, (\d+) passes`)
)

// TestDistributedModularBaseline: after a policy edit, a distributed
// -baseline -modular sweep dispatches its dirty classes as region
// passes and reports what the in-process sweep reports.
func TestDistributedModularBaseline(t *testing.T) {
	dir := exampleNet(t)
	base := filepath.Join(t.TempDir(), "base.json")
	mustRun(t, 0, "sweep", "-dir", dir, "-save-baseline", base)
	dropGW0(t, dir)
	workers := startWorkers(t, dir)

	local := mustRun(t, 1, "sweep", "-dir", dir, "-baseline", base, "-modular")
	remote := mustRun(t, 1, "sweep", "-dir", dir, "-baseline", base, "-modular", "-workers", workers)
	lp, dp := localPasses.FindStringSubmatch(local), distPasses.FindStringSubmatch(remote)
	if lp == nil || dp == nil || dp[1] == "0" || lp[1] != dp[1] {
		t.Fatalf("region passes: local %v, distributed %v\nlocal:\n%s\ndistributed:\n%s", lp, dp, local, remote)
	}
	lv, dv := violations(local), violations(remote)
	if len(lv) == 0 || strings.Join(lv, "\n") != strings.Join(dv, "\n") {
		t.Fatalf("violations differ:\nlocal:\n%s\ndistributed:\n%s", local, remote)
	}
}

// TestDistributedJournalBaseline: a journaled session over the dirty
// classes of a baseline plan completes, reports the replayed classes'
// violations with the dispatched ones, and removes its journal.
func TestDistributedJournalBaseline(t *testing.T) {
	dir := exampleNet(t)
	dropGW0(t, dir)
	base := filepath.Join(t.TempDir(), "base.json")
	mustRun(t, 1, "sweep", "-dir", dir, "-save-baseline", base)
	// A prefix-scoped policy change: some classes stay clean and replay.
	edit(t, dir, "pe-r0-2", "route-policy TAG permit 10\n",
		"ip prefix-list P2 permit 10.0.2.0/24\nroute-policy TAG permit 5\n  match prefix-list P2\n  set local-preference 50\nroute-policy TAG permit 10\n")
	workers := startWorkers(t, dir)
	journal := filepath.Join(t.TempDir(), "sweep.journal")

	local := mustRun(t, 1, "sweep", "-dir", dir, "-baseline", base)
	remote := mustRun(t, 1, "sweep", "-dir", dir, "-baseline", base, "-workers", workers, "-journal", journal)
	if !strings.Contains(remote, "session ") || !regexp.MustCompile(`[1-9]\d* replayed from the baseline`).MatchString(remote) {
		t.Fatalf("output:\n%s", remote)
	}
	if _, err := os.Stat(journal); !os.IsNotExist(err) {
		t.Fatalf("journal left behind: %v", err)
	}
	lv, dv := violations(local), violations(remote)
	if len(lv) == 0 || strings.Join(lv, "\n") != strings.Join(dv, "\n") {
		t.Fatalf("violations differ:\nlocal:\n%s\ndistributed:\n%s", local, remote)
	}
}

func TestExitCodes(t *testing.T) {
	dir := exampleNet(t)
	for _, c := range []struct {
		args []string
		msg  string
	}{
		{[]string{"-save-baseline", "b.json", "-workers", "127.0.0.1:1"}, "-save-baseline captures taints and conditions locally"},
		{[]string{"-save-baseline", "b.json", "-modular"}, "-modular cannot capture a baseline"},
		{[]string{"-journal", "j"}, "-journal needs a distributed sweep"},
		{[]string{"-journal", "j", "-modular", "-workers", "127.0.0.1:1"}, "-journal records monolithic class completions"},
		{[]string{"-resume"}, "-resume needs -journal"},
	} {
		_, errOut, code := hoyanCmd(t, append([]string{"sweep", "-dir", dir}, c.args...)...)
		if code != 1 || !strings.Contains(errOut, c.msg) {
			t.Errorf("sweep %v: exit %d, stderr %q; want 1 and %q", c.args, code, errOut, c.msg)
		}
	}
	for _, args := range [][]string{
		{"nosuch", "-dir", dir},
		{"sweep", "-dir", dir, "-no-incremental"},
	} {
		if _, _, code := hoyanCmd(t, args...); code != 2 {
			t.Errorf("hoyan %v: exit %d, want 2", args, code)
		}
	}
}
