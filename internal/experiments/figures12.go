package experiments

import (
	"context"
	"fmt"

	"repro/internal/analysis"
	"repro/internal/engine"
)

// Figure1 regenerates the analysis curves of Figure 1: the probability that
// at least one grid is formed by relevant dimensions only, as a function of
// the number of labeled objects, for several d_i/d ratios. Parameters match
// §4.5: d = 3000, p = 0.01, c = 3, g = 20, variance ratio 0.15.
//
// The analysis sums are cheap, so cancellation is checked once per x-point.
func Figure1(ctx context.Context) (*Table, error) {
	ratios := []float64{0.01, 0.02, 0.05, 0.10}
	t := &Table{
		Title:  "Figure 1: P(>=1 all-relevant grid) vs labeled objects |Io|",
		XLabel: "|Io|",
	}
	for _, r := range ratios {
		t.Columns = append(t.Columns, fmt.Sprintf("di/d=%.0f%%", r*100))
	}
	for q := 1; q <= 10; q++ {
		if err := engine.Cause(ctx); err != nil {
			return nil, err
		}
		cells := make([]float64, 0, len(ratios))
		for _, r := range ratios {
			p, err := analysis.AtLeastOneRelevantGridObjects(analysis.ObjectsParams{
				D: 3000, Di: int(3000 * r), Q: q, C: 3, G: 20,
				P: 0.01, VarianceRatio: 0.15,
			})
			if err != nil {
				return nil, err
			}
			cells = append(cells, p)
		}
		t.Add(fmt.Sprintf("%d", q), cells...)
	}
	return t, nil
}

// Figure2 regenerates the analysis curves of Figure 2: the probability that
// at least one grid has all building dimensions relevant to the target
// cluster only, as a function of the number of labeled dimensions, with
// k = 5.
//
// The analysis sums are cheap, so cancellation is checked once per x-point.
func Figure2(ctx context.Context) (*Table, error) {
	ratios := []float64{0.01, 0.02, 0.05, 0.10}
	t := &Table{
		Title:  "Figure 2: P(>=1 exclusive grid) vs labeled dimensions |Iv|",
		XLabel: "|Iv|",
	}
	for _, r := range ratios {
		t.Columns = append(t.Columns, fmt.Sprintf("di/d=%.0f%%", r*100))
	}
	for l := 1; l <= 10; l++ {
		if err := engine.Cause(ctx); err != nil {
			return nil, err
		}
		cells := make([]float64, 0, len(ratios))
		for _, r := range ratios {
			p, err := analysis.AtLeastOneExclusiveGridDims(analysis.DimsParams{
				D: 3000, Di: int(3000 * r), K: 5, L: l, C: 3, G: 20,
			})
			if err != nil {
				return nil, err
			}
			cells = append(cells, p)
		}
		t.Add(fmt.Sprintf("%d", l), cells...)
	}
	return t, nil
}
