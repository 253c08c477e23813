package core

import (
	"errors"
	"fmt"
	"reflect"
	"testing"
)

// TestRunModularSchedule drives the modular schedule with a fake
// executor over three regions and one unit per path: a clean unit, a
// unit with no home, a refused home pass, a refused import pass and a
// failed import pass. It pins the round contents, the counters and the
// verdict each unit ends with.
func TestRunModularSchedule(t *testing.T) {
	const (
		clean = iota
		homeless
		homeRefused
		importRefused
		importFailed
	)
	homes := []int{clean: 0, homeless: -1, homeRefused: 1, importRefused: 2, importFailed: 0}
	var rounds [][]string
	exec := func(round []ModularPass) ([]PassResult[string], error) {
		var names []string
		out := make([]PassResult[string], len(round))
		for i, p := range round {
			name := fmt.Sprintf("u%d@%d", p.Unit, p.Region)
			if p.Region >= 0 && p.Summary != nil {
				if want := fmt.Sprintf("home of u%d", p.Unit); p.Summary.Region != want {
					t.Errorf("%s imports %q, want %q", name, p.Summary.Region, want)
				}
				name += "+import"
			}
			names = append(names, name)
			switch {
			case p.Region < 0:
				out[i].Verdicts = []string{name}
			case p.Unit == homeRefused && p.Summary == nil:
				out[i].Refused = "frozen session"
			case p.Unit == importRefused && p.Region == 0:
				out[i].Refused = "second cut"
			case p.Unit == importFailed && p.Region == 2:
				out[i].Failed = true
			default:
				out[i].Verdicts = []string{name}
				if p.Summary == nil {
					out[i].Summary = &CutSummary{Region: fmt.Sprintf("home of u%d", p.Unit)}
				}
			}
		}
		rounds = append(rounds, names)
		return out, nil
	}
	run, err := RunModular(homes, 3, exec)
	if err != nil {
		t.Fatal(err)
	}
	wantRounds := [][]string{
		{"u0@0", "u1@-1", "u2@1", "u3@2", "u4@0"},
		{"u0@1+import", "u0@2+import", "u3@0+import", "u3@1+import", "u4@1+import", "u4@2+import", "u2@-1"},
		{"u3@-1"},
	}
	if !reflect.DeepEqual(rounds, wantRounds) {
		t.Fatalf("rounds:\n got  %v\n want %v", rounds, wantRounds)
	}
	if run.Rounds != 3 || run.Passes != 10 || run.Refused != 3 {
		t.Fatalf("Rounds=%d Passes=%d Refused=%d, want 3, 10, 3", run.Rounds, run.Passes, run.Refused)
	}
	wantVerdicts := [][]string{
		clean:         {"u0@0", "u0@1+import", "u0@2+import"},
		homeless:      {"u1@-1"},
		homeRefused:   {"u2@-1"},
		importRefused: {"u3@-1"},
		importFailed:  nil,
	}
	if !reflect.DeepEqual(run.Verdicts, wantVerdicts) {
		t.Fatalf("verdicts:\n got  %v\n want %v", run.Verdicts, wantVerdicts)
	}
}

// TestRunModularExecutorError checks that an executor error aborts the
// schedule instead of being folded as a refusal or failure.
func TestRunModularExecutorError(t *testing.T) {
	boom := errors.New("boom")
	_, err := RunModular([]int{0, 1}, 2, func([]ModularPass) ([]PassResult[int], error) { return nil, boom })
	if !errors.Is(err, boom) {
		t.Fatalf("got %v, want the executor's error", err)
	}
}
