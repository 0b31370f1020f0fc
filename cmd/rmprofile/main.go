// Command rmprofile runs the §4.2.1 profiling pipeline: it measures every
// benchmark subtask's execution latency over a (data size × utilization)
// grid, fits the eq. (3) regression per subtask, profiles the segment's
// buffer delay, and fits eq. (5)'s slope — printing the resulting models
// alongside the paper's published Table 2/3 coefficients.
package main

import (
	"flag"
	"fmt"
	"log/slog"
	"os"

	"repro/internal/cliflag"
	"repro/internal/core"
	"repro/internal/dynbench"
	"repro/internal/experiment"
	"repro/internal/obs"
	"repro/internal/profile"
	"repro/internal/regress"
)

func main() {
	var (
		seed   = cliflag.Seed(flag.CommandLine, 11)
		reps   = flag.Int("reps", 3, "measurements per grid point")
		logFmt = cliflag.LogFormat(flag.CommandLine)
	)
	flag.Parse()

	logger, err := obs.NewLogger(os.Stderr, *logFmt, slog.LevelInfo)
	if err != nil {
		fmt.Fprintln(os.Stderr, "rmprofile:", err)
		os.Exit(1)
	}
	slog.SetDefault(logger)

	spec := dynbench.NewTask(dynbench.DefaultConfig())
	grid := profile.DefaultExecGrid()
	grid.Reps = *reps

	fmt.Println("profiling execution latencies (eq. 3)...")
	models, err := experiment.BuildModels(core.DefaultConfig(), spec, grid, profile.DefaultCommGrid(), *seed)
	if err != nil {
		fmt.Fprintln(os.Stderr, "rmprofile:", err)
		os.Exit(1)
	}
	for i, st := range spec.Subtasks {
		marker := " "
		if st.Replicable {
			marker = "*"
		}
		fmt.Printf("%s subtask %d (%s):\n    %v\n    %v\n", marker, i+1, st.Name, models.Exec[i], models.ExecFit[i])
	}
	fmt.Println("\npublished Table 2 coefficients (u as a fraction; see DESIGN.md):")
	fmt.Printf("  subtask 3 (Filter):     %v\n", regress.PaperExecSubtask3())
	fmt.Printf("  subtask 5 (EvalDecide): %v\n", regress.PaperExecSubtask5())

	fmt.Println("\nbuffer-delay slope (eq. 5):")
	fmt.Printf("  fitted k = %.4f ms per 100 tracks (paper Table 3: %.1f)\n",
		models.Comm.K, regress.PaperBufferSlopeK)
}
