package experiments

import (
	"encoding/csv"
	"fmt"
	"io"
	"math"

	"repro/internal/plot"
)

// Chart converts a ψ-vs-parameter curve into a renderable line chart with
// the ψ axis fixed to [0, 1], as in the paper's figures.
func (c *Curve) Chart() *plot.Chart {
	ch := &plot.Chart{
		Title:  c.Name,
		XLabel: c.XLabel,
		YLabel: "success ratio ψ",
		YFixed: true, YMin: 0, YMax: 1,
	}
	for _, alg := range c.Algorithms {
		l := plot.Line{Label: alg.String()}
		for _, pt := range c.Points {
			l.X = append(l.X, pt.X)
			l.Y = append(l.Y, pt.Psi[alg])
		}
		ch.Lines = append(ch.Lines, l)
	}
	return ch
}

// Chart converts a ψ fluctuation set into a renderable line chart.
func (s *SeriesSet) Chart() *plot.Chart {
	ch := &plot.Chart{
		Title:  s.Name,
		XLabel: "time (min)",
		YLabel: "success ratio ψ",
		YFixed: true, YMin: 0, YMax: 1,
	}
	for _, alg := range s.Algorithms {
		l := plot.Line{Label: alg.String()}
		for _, p := range s.Series[alg] {
			l.X = append(l.X, p.Time)
			l.Y = append(l.Y, p.Value)
		}
		ch.Lines = append(ch.Lines, l)
	}
	return ch
}

// WriteCurveCSV emits the curve as CSV: x followed by one ψ column per
// algorithm.
func WriteCurveCSV(w io.Writer, c *Curve) error {
	cw := csv.NewWriter(w)
	header := []string{c.XLabel}
	for _, alg := range c.Algorithms {
		header = append(header, "psi_"+alg.String())
	}
	if err := cw.Write(header); err != nil {
		return err
	}
	for _, pt := range c.Points {
		row := []string{fmt.Sprintf("%g", pt.X)}
		for _, alg := range c.Algorithms {
			row = append(row, fmt.Sprintf("%.6f", pt.Psi[alg]))
		}
		if err := cw.Write(row); err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
}

// WriteSeriesCSV emits the fluctuation set as CSV: time followed by one ψ
// column per algorithm (empty cell when an algorithm has no sample in a
// window).
func WriteSeriesCSV(w io.Writer, s *SeriesSet) error {
	cw := csv.NewWriter(w)
	header := []string{"time_min"}
	for _, alg := range s.Algorithms {
		header = append(header, "psi_"+alg.String())
	}
	if err := cw.Write(header); err != nil {
		return err
	}
	times := map[float64]bool{}
	for _, alg := range s.Algorithms {
		for _, p := range s.Series[alg] {
			times[p.Time] = true
		}
	}
	ordered := make([]float64, 0, len(times))
	for t := range times {
		ordered = append(ordered, t)
	}
	for i := 1; i < len(ordered); i++ {
		for j := i; j > 0 && ordered[j-1] > ordered[j]; j-- {
			ordered[j-1], ordered[j] = ordered[j], ordered[j-1]
		}
	}
	for _, t := range ordered {
		row := []string{fmt.Sprintf("%g", t)}
		for _, alg := range s.Algorithms {
			v := math.NaN()
			for _, p := range s.Series[alg] {
				// t was collected verbatim from these series.
				if p.Time == t {
					v = p.Value
					break
				}
			}
			if math.IsNaN(v) {
				row = append(row, "")
			} else {
				row = append(row, fmt.Sprintf("%.6f", v))
			}
		}
		if err := cw.Write(row); err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
}
