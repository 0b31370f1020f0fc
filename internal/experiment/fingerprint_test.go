package experiment

import (
	"reflect"
	"testing"

	"repro/internal/core"
)

// TestFingerprintCoversEveryConfigField reflectively walks core.Config —
// including the embedded chaos, degradation, network, and monitor
// structs — mutating one leaf field at a time and asserting the run
// fingerprint changes. The fingerprint serializes cfg with %+v, so a
// field can only escape it via an ignored kind or a deliberate
// exclusion; this test turns that into a compile-against-the-cache
// guarantee for future fields.
func TestFingerprintCoversEveryConfigField(t *testing.T) {
	setup, err := BenchmarkSetup(TriangularFactory(4 * WorkloadUnit))
	if err != nil {
		t.Fatal(err)
	}
	setups := []core.TaskSetup{setup}
	base := core.DefaultConfig()
	baseFP := RunKey(base, core.Predictive, setups)

	if RunKey(base, core.NonPredictive, setups) == baseFP {
		t.Error("algorithm does not alter the fingerprint")
	}

	var walk func(t *testing.T, v reflect.Value, path string)
	mutateLeaf := func(f reflect.Value) bool {
		switch f.Kind() {
		case reflect.Bool:
			f.SetBool(!f.Bool())
		case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
			f.SetInt(f.Int() + 1)
		case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64:
			f.SetUint(f.Uint() + 1)
		case reflect.Float32, reflect.Float64:
			f.SetFloat(f.Float() + 0.5)
		case reflect.String:
			f.SetString(f.String() + "x")
		default:
			return false
		}
		return true
	}
	walk = func(t *testing.T, v reflect.Value, path string) {
		for i := 0; i < v.NumField(); i++ {
			sf := v.Type().Field(i)
			if !sf.IsExported() {
				continue
			}
			f := v.Field(i)
			name := path + sf.Name
			switch f.Kind() {
			case reflect.Struct:
				walk(t, f, name+".")
			case reflect.Slice:
				// Populate nil slices with one zero element, then mutate
				// that element's first mutable leaf (or the element itself
				// for scalar slices).
				el := reflect.New(sf.Type.Elem()).Elem()
				f.Set(reflect.Append(reflect.MakeSlice(sf.Type, 0, 1), el))
				target := f.Index(0)
				if target.Kind() == reflect.Struct {
					// Appending a zero struct element already changes %+v
					// output versus the nil slice.
					break
				}
				if !mutateLeaf(target) {
					t.Errorf("field %s: slice element kind %v not mutable", name, target.Kind())
				}
			default:
				if !mutateLeaf(f) {
					t.Errorf("field %s: kind %v not handled by the coverage walker", name, f.Kind())
					continue
				}
			}
		}
	}

	// Mutate one leaf at a time by re-walking from a fresh copy per field:
	// enumerate field paths first, then flip each in isolation.
	var paths []string
	var collect func(v reflect.Value, path string)
	collect = func(v reflect.Value, path string) {
		for i := 0; i < v.NumField(); i++ {
			sf := v.Type().Field(i)
			if !sf.IsExported() {
				continue
			}
			f := v.Field(i)
			name := path + sf.Name
			switch f.Kind() {
			case reflect.Struct:
				collect(f, name+".")
			default:
				if name == "Parallel" {
					// Worker count: results are byte-identical for every
					// value, deliberately excluded (checked separately).
					continue
				}
				paths = append(paths, name)
			}
		}
	}
	collect(reflect.ValueOf(base), "")

	mutateAt := func(cfg *core.Config, path string) bool {
		v := reflect.ValueOf(cfg).Elem()
		rest := path
		for {
			dot := -1
			for i := 0; i < len(rest); i++ {
				if rest[i] == '.' {
					dot = i
					break
				}
			}
			if dot == -1 {
				break
			}
			v = v.FieldByName(rest[:dot])
			rest = rest[dot+1:]
		}
		f := v.FieldByName(rest)
		if f.Kind() == reflect.Slice {
			el := reflect.New(f.Type().Elem()).Elem()
			if el.Kind() != reflect.Struct {
				if !mutateLeaf(el) {
					return false
				}
			}
			f.Set(reflect.Append(reflect.MakeSlice(f.Type(), 0, 1), el))
			return true
		}
		return mutateLeaf(f)
	}

	if len(paths) < 20 {
		t.Fatalf("coverage walker found only %d leaf fields in core.Config — walker broken?", len(paths))
	}
	for _, p := range paths {
		cfg := core.DefaultConfig()
		if !mutateAt(&cfg, p) {
			t.Errorf("field %s: kind not mutable by the coverage walker", p)
			continue
		}
		if RunKey(cfg, core.Predictive, setups) == baseFP {
			t.Errorf("field %s does not alter the run fingerprint — the disk cache would serve "+
				"stale results for configs differing only in this field", p)
		}
	}

	// Sanity-check the walker itself: walk must not find unhandled kinds.
	probe := core.DefaultConfig()
	walk(t, reflect.ValueOf(&probe).Elem(), "")
}

// The parallel worker count trades wall-clock only — lane results are
// byte-identical for every value — so it must NOT enter the fingerprint,
// or a sweep recorded serially would never warm-hit a parallel rerun.
// The lane partition itself, by contrast, shapes results and must split
// the cache.
func TestFingerprintExcludesParallelButNotLanes(t *testing.T) {
	setup, err := BenchmarkSetup(TriangularFactory(4 * WorkloadUnit))
	if err != nil {
		t.Fatal(err)
	}
	setups := []core.TaskSetup{setup}
	base := core.DefaultConfig()
	with := base
	with.Parallel = 8
	if RunKey(base, core.Predictive, setups) != RunKey(with, core.Predictive, setups) {
		t.Error("Parallel altered the fingerprint; serial and parallel runs would not share cache entries")
	}
	laned := base
	laned.Lanes = 2
	if RunKey(base, core.Predictive, setups) == RunKey(laned, core.Predictive, setups) {
		t.Error("Lanes did not alter the fingerprint; partitioned runs would serve single-segment cache entries")
	}
}

// Chaos and degradation configs must produce distinct cache identities:
// two intensities of the ext-chaos grid can never share a disk entry.
func TestFingerprintSeparatesChaosCells(t *testing.T) {
	setup, err := BenchmarkSetup(TriangularFactory(4 * WorkloadUnit))
	if err != nil {
		t.Fatal(err)
	}
	setups := []core.TaskSetup{setup}
	seen := map[string]string{}
	for _, in := range chaosIntensities() {
		for _, alg := range []core.Algorithm{core.Predictive, core.NonPredictive} {
			fp := RunKey(chaosConfig(in, chaosSeed(in.name, alg, 0)), alg, setups)
			id := in.name + "/" + string(alg)
			if prev, ok := seen[fp]; ok {
				t.Fatalf("fingerprint collision between %s and %s", prev, id)
			}
			seen[fp] = id
		}
	}
}
