package main

import (
	"fmt"
	"io"

	"fairrank/internal/dataset"
	"fairrank/internal/drift"
)

// runContinuousCmd is the -window / -half-life entry point: it loads the
// same dataset and scoring weights as the static audit and streams the
// rows through a continuous-audit watch.
func runContinuousCmd(w io.Writer, dataFile, snapFile string, gen int, seed uint64, alpha float64,
	weightSpec string, bins int, attrSpec string, window int, halfLife float64) error {
	ds, err := loadDataset(dataFile, snapFile, gen, seed, "", "", "")
	if err != nil {
		return err
	}
	defer ds.Close()
	weights, err := parseWeights(alpha, weightSpec)
	if err != nil {
		return err
	}
	attrs := splitList(attrSpec)
	if len(attrs) == 0 {
		for _, a := range ds.Schema().Protected {
			attrs = append(attrs, a.Name)
		}
	}
	return runContinuous(w, ds, drift.Spec{
		ID: "fairaudit", Dataset: "fairaudit", Attributes: attrs,
		Weights: weights, Bins: bins, Window: window, HalfLife: halfLife,
	})
}

// runContinuous seeds a watch of spec with the dataset's rows, as a
// monitor is seeded, and prints how the unfairness estimate evolves: the
// unbounded-history monitor next to a sliding window (-window) and/or an
// exponential-decay estimator (-half-life). On a static snapshot the
// stream order is row order, so the readout shows what a monitor attached
// partway through the population would report — and how far a
// bounded-memory estimate sits from the full-history one.
func runContinuous(w io.Writer, ds *dataset.Dataset, spec drift.Spec) error {
	watch, err := drift.NewWatch(ds.Schema(), spec)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "continuous audit: %d join events", ds.N())
	if spec.Window > 0 {
		fmt.Fprintf(w, ", window %d", spec.Window)
	}
	if spec.HalfLife > 0 {
		fmt.Fprintf(w, ", half-life %g", spec.HalfLife)
	}
	fmt.Fprintln(w)
	fmt.Fprintf(w, "%10s  %10s", "event", "total")
	if spec.Window > 0 {
		fmt.Fprintf(w, "  %10s", "window")
	}
	if spec.HalfLife > 0 {
		fmt.Fprintf(w, "  %10s", "decay")
	}
	fmt.Fprintln(w)

	every := max(ds.N()/10, 1)
	err = drift.SeedDataset(watch, ds, func(n int) {
		if n%every != 0 && n != ds.N() {
			return
		}
		st := watch.Status()
		fmt.Fprintf(w, "%10d  %10.4f", n, st.Total.Unfairness)
		if st.Window != nil {
			fmt.Fprintf(w, "  %10.4f", st.Window.Unfairness)
		}
		if st.Decay != nil {
			fmt.Fprintf(w, "  %10.4f", st.Decay.Unfairness)
		}
		fmt.Fprintln(w)
	})
	if err != nil {
		return err
	}
	st := watch.Status()
	fmt.Fprintf(w, "\nfinal: total %.4f over %d workers", st.Total.Unfairness, st.Total.Workers)
	if st.Window != nil {
		fmt.Fprintf(w, "; window %.4f over the last %d", st.Window.Unfairness, st.Window.Live)
	}
	if st.Decay != nil {
		fmt.Fprintf(w, "; decay %.4f", st.Decay.Unfairness)
	}
	fmt.Fprintln(w)
	return nil
}
