package experiment

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math/rand/v2"
	"strings"

	"repro/internal/core"
)

// cacheSchema versions the run fingerprint and the cached run outcome
// layout together. Bump it whenever either changes meaning: stale
// persistent cache entries then simply miss instead of being misread.
//
// v2: core.Config gained Chaos/Degradation, network.Config gained the
// loss/jitter/partition knobs, and the cached outcome's metrics gained
// the chaos counters.
//
// v3: the allocation policies moved behind the internal/policy registry,
// core.Config gained the Policy knob section (stretch/shed), and the
// cached outcome's metrics gained the ShedItems/StretchedPeriods
// counters.
//
// v4: core.Config gained the lane partition (Lanes, which shapes
// results and enters the fingerprint) and the Parallel worker knob
// (byte-identical results for every value, excluded below).
//
// v5: core.Config lost its Telemetry field (the recorder moved onto the
// core.Observer probe), so the %#v dump below — and with it every key —
// changed once. Results did not: stale disk entries miss and
// re-simulate, and no committed fixture pins a real key.
//
// v6: the cached outcome became api.RunResult, whose metrics use the
// wire's snake_case names (mean_cpu_util, shed_items, ...) instead of
// Go field names. Go's case-insensitive decoding would still read an
// old entry's Periods but silently zero its MeanCPUUtil, so old entries
// must miss rather than be misread.
const cacheSchema = 6

// demandProbeSizes are the item counts at which each subtask's demand
// curve is sampled into the fingerprint. Demand functions are closures,
// so their identity cannot be hashed directly; probing the curve at fixed
// sizes with a fixed-seed rng captures the content instead — two setups
// fingerprint equal exactly when their demand curves agree at the probes.
var demandProbeSizes = [...]int{100, 1700, 4900}

// RunKey content-addresses one simulation run: the SHA-256 of a
// canonical description of everything that determines its result — the
// schema version, the algorithm, the full config (seed included) and,
// per task, the spec identity, demand-curve probes, placement,
// workload pattern, and fitted regression models. The hex digest doubles
// as the scheduler's dedup key and the disk cache's file name; the
// rmserved daemon stamps it on jobs and journal records so clients can
// resubmit or poll a run by content address across daemon restarts, and
// test suites (the policy conformance harness's knob-sensitivity check)
// use it to assert that two run descriptions do or do not alias.
func RunKey(cfg core.Config, alg core.Algorithm, setups []core.TaskSetup) string {
	var b strings.Builder
	// The lane *partition* shapes results (Lanes stays in the %#v dump);
	// the worker count driving the lanes does not — serial and parallel
	// drivers are byte-identical by construction — so Parallel must not
	// split the cache.
	cfg.Parallel = 0
	// %#v, not %+v: sim.Time's String() rounds to three decimals, so %+v
	// would alias configs whose durations differ by less than a
	// microsecond. The Go-syntax form prints the raw int64s.
	fmt.Fprintf(&b, "schema=%d;alg=%s;cfg=%#v;", cacheSchema, alg, cfg)
	for _, ts := range setups {
		fmt.Fprintf(&b, "task=%s|period=%d|deadline=%d|homes=%v;",
			ts.Spec.Name, int64(ts.Spec.Period), int64(ts.Spec.Deadline), ts.Homes)
		for _, st := range ts.Spec.Subtasks {
			fmt.Fprintf(&b, "st=%s|repl=%t|out=%d|demand=", st.Name, st.Replicable, st.OutBytesPerItem)
			for _, items := range demandProbeSizes {
				rng := rand.New(rand.NewPCG(0x5eedca11, uint64(items)))
				fmt.Fprintf(&b, "%d,", int64(st.Demand(items, rng)))
			}
			b.WriteByte(';')
		}
		fmt.Fprintf(&b, "pattern=%T%+v;", ts.Pattern, ts.Pattern)
		for _, em := range ts.Exec {
			fmt.Fprintf(&b, "exec=%v;", em.Coefficients())
		}
		fmt.Fprintf(&b, "comm=%+v;", ts.Comm)
	}
	sum := sha256.Sum256([]byte(b.String()))
	return hex.EncodeToString(sum[:])
}
