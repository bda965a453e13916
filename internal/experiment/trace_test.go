package experiment

import (
	"fmt"
	"reflect"
	"strings"
	"testing"

	"cash/internal/cashrt"
	"cash/internal/cost"
	"cash/internal/fault"
	"cash/internal/vcore"
	"cash/internal/workload"
)

// TestRunTraceMatchesGeneration: a batch run that replays a recorded
// trace returns a Result deeply equal to the run that generates its
// stream, for a plain CASH run and for the pinned faulted run (whose
// digest the replay must also reproduce). Since the results cannot
// tell the two apart, the test also checks that a run given a trace
// reads from a replay of it and one without reads from a generator. A
// trace recorded under
// another seed or from another scale of the app is refused, and so is
// any trace handed to a server run.
func TestRunTraceMatchesGeneration(t *testing.T) {
	t.Run("cash", func(t *testing.T) {
		app := tinyApp()
		run := func(tr *workload.Trace) Result {
			res, err := Run(app, cashrt.MustNew(0.4, cost.Default(), cashrt.Options{Seed: 7}),
				Opts{Target: 0.4, Tolerance: 0.10, Trace: tr})
			if err != nil {
				t.Fatal(err)
			}
			return res
		}
		tr := workload.Record(app, DefaultSeed)
		generated, replayed := run(nil), run(tr)
		for _, c := range []struct {
			tr   *workload.Trace
			want string
		}{{nil, "*workload.Gen"}, {tr, "*workload.TraceReader"}} {
			b := &batch{app: app}
			b.opts = Opts{Target: 0.4, Trace: c.tr}.withDefaults()
			if err := b.setup(); err != nil {
				t.Fatal(err)
			}
			if got := fmt.Sprintf("%T", b.src); got != c.want {
				t.Errorf("a batch run given trace %p reads from a %s, want a %s", c.tr, got, c.want)
			}
		}
		if len(generated.Samples) < 2 || generated.ReconfigCount == 0 {
			t.Fatalf("the run is too short to compare: %d samples, %d reconfigurations",
				len(generated.Samples), generated.ReconfigCount)
		}
		if !reflect.DeepEqual(generated, replayed) {
			t.Fatalf("replayed run differs from the generated one:\n%+v\n%+v", generated, replayed)
		}
	})

	t.Run("faulted", func(t *testing.T) {
		// TestRunFaultDigestPinned's run.
		sched := fault.MustGenerate(fault.Spec{
			Rate: 1, Horizon: 4_000_000, Width: 2, Height: 2, Seed: 3,
			TransientFrac: 0.9, MeanRepair: 300_000,
		})
		hmmer, _ := workload.ByName("hmmer")
		app := hmmer.Scale(0.5)
		run := func(tr *workload.Trace) Result {
			rt := &idleCounter{Runtime: cashrt.MustNew(0.3, cost.Default(), cashrt.Options{
				Seed: 5, Guardrails: true, ProbePeriod: 4,
			})}
			res, err := Run(app, rt, Opts{
				Target: 0.3, MaxQuanta: 40,
				Faults: &sched, FabricWidth: 2, FabricHeight: 2,
				Initial: vcore.Config{Slices: 2, L2KB: 128},
				Trace:   tr,
			})
			if err != nil {
				t.Fatal(err)
			}
			return res
		}
		generated, replayed := run(nil), run(workload.Record(app, DefaultSeed))
		if !reflect.DeepEqual(generated, replayed) {
			t.Fatalf("replayed faulted run differs from the generated one:\n%+v\n%+v", generated, replayed)
		}
		if got := runDigest(replayed); got != pinnedRunDigest {
			t.Errorf("replayed run digest %s, pinned %s", got, pinnedRunDigest)
		}
	})

	t.Run("mismatch", func(t *testing.T) {
		app := tinyApp()
		for name, tr := range map[string]*workload.Trace{
			"another seed":  workload.Record(app, DefaultSeed+1),
			"another scale": workload.Record(app.Scale(0.5), DefaultSeed),
		} {
			_, err := Run(app, cashrt.MustNew(0.4, cost.Default(), cashrt.Options{}), Opts{Target: 0.4, Trace: tr})
			if err == nil || !strings.Contains(err.Error(), "trace") {
				t.Errorf("a trace recorded from %s: Run returned %v, want a trace error", name, err)
			}
		}
		if _, err := Run(app, cashrt.MustNew(0.4, cost.Default(), cashrt.Options{}),
			Opts{Target: 0.4, Seed: DefaultSeed + 1, Trace: workload.Record(app, DefaultSeed+1)}); err != nil {
			t.Errorf("a trace recorded at the run's own non-default seed was refused: %v", err)
		}
	})

	t.Run("server", func(t *testing.T) {
		opts := ServerOpts{Horizon: 1_000_000}
		opts.Trace = workload.Record(tinyApp(), DefaultSeed)
		_, err := RunServer(&scripted{}, opts)
		if err == nil || !strings.Contains(err.Error(), "trace") {
			t.Errorf("RunServer given a trace returned %v, want a trace error", err)
		}
	})
}
