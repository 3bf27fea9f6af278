// Package plot renders simple line charts as standalone SVG documents,
// using only the standard library. The experiment harness uses it to emit
// the paper's figures as images (`qsaexp -svg`), one line per algorithm,
// in the same axes as the originals.
package plot

import (
	"fmt"
	"io"
	"math"
	"strings"
)

// Line is one labeled data series.
type Line struct {
	Label string
	X, Y  []float64
}

// Chart is a 2-D line chart.
type Chart struct {
	Title  string
	XLabel string
	YLabel string
	Lines  []Line

	// YMin/YMax fix the y range when YFixed is true (e.g. 0…1 for ψ);
	// otherwise the range adapts to the data.
	YMin, YMax float64
	YFixed     bool
}

// Canvas geometry (viewBox units).
const (
	width   = 720.0
	height  = 460.0
	marginL = 72.0
	marginR = 24.0
	marginT = 48.0
	marginB = 64.0
)

// palette holds visually distinct stroke colors; lines beyond its length
// also vary by dash pattern.
var palette = []string{"#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e", "#8c564b"}

var dashes = []string{"", "8 4", "2 3", "8 4 2 4", "12 4", "4 4"}

// niceTicks returns ~n rounded tick positions covering [lo, hi].
func niceTicks(lo, hi float64, n int) []float64 {
	if hi <= lo {
		hi = lo + 1
	}
	raw := (hi - lo) / float64(n)
	mag := math.Pow(10, math.Floor(math.Log10(raw)))
	var step float64
	switch {
	case raw/mag < 1.5:
		step = mag
	case raw/mag < 3.5:
		step = 2 * mag
	case raw/mag < 7.5:
		step = 5 * mag
	default:
		step = 10 * mag
	}
	start := math.Ceil(lo/step) * step
	var ticks []float64
	for v := start; v <= hi+step*1e-9; v += step {
		// Normalize -0 and float dust.
		if math.Abs(v) < step*1e-9 {
			v = 0
		}
		ticks = append(ticks, v)
	}
	return ticks
}

func fmtTick(v float64) string {
	s := fmt.Sprintf("%.6g", v)
	return s
}

// dataRange returns the extent of all lines on one axis.
func (c *Chart) dataRange(get func(Line) []float64) (lo, hi float64) {
	lo, hi = math.Inf(1), math.Inf(-1)
	for _, l := range c.Lines {
		for _, v := range get(l) {
			if math.IsNaN(v) {
				continue
			}
			if v < lo {
				lo = v
			}
			if v > hi {
				hi = v
			}
		}
	}
	if math.IsInf(lo, 1) {
		lo, hi = 0, 1
	}
	if lo == hi {
		lo, hi = lo-0.5, hi+0.5
	}
	return lo, hi
}

// SVG renders the chart as a standalone SVG document.
func (c *Chart) SVG(w io.Writer) error {
	if len(c.Lines) == 0 {
		return fmt.Errorf("plot: chart %q has no lines", c.Title)
	}
	for _, l := range c.Lines {
		if len(l.X) != len(l.Y) {
			return fmt.Errorf("plot: line %q has %d x vs %d y values", l.Label, len(l.X), len(l.Y))
		}
		if len(l.X) == 0 {
			return fmt.Errorf("plot: line %q is empty", l.Label)
		}
	}
	xLo, xHi := c.dataRange(func(l Line) []float64 { return l.X })
	var yLo, yHi float64
	if c.YFixed {
		yLo, yHi = c.YMin, c.YMax
	} else {
		yLo, yHi = c.dataRange(func(l Line) []float64 { return l.Y })
		pad := (yHi - yLo) * 0.05
		yLo, yHi = yLo-pad, yHi+pad
	}

	plotW := width - marginL - marginR
	plotH := height - marginT - marginB
	sx := func(v float64) float64 { return marginL + (v-xLo)/(xHi-xLo)*plotW }
	sy := func(v float64) float64 { return marginT + plotH - (v-yLo)/(yHi-yLo)*plotH }

	var b strings.Builder
	b.WriteString(fmt.Sprintf(`<svg xmlns="http://www.w3.org/2000/svg" viewBox="0 0 %g %g" font-family="sans-serif" font-size="13">`+"\n", width, height))
	b.WriteString(`<rect width="100%" height="100%" fill="white"/>` + "\n")
	b.WriteString(fmt.Sprintf(`<text x="%g" y="%g" text-anchor="middle" font-size="16">%s</text>`+"\n",
		width/2, marginT-20, escape(c.Title)))

	// Axes.
	b.WriteString(fmt.Sprintf(`<line x1="%g" y1="%g" x2="%g" y2="%g" stroke="black"/>`+"\n",
		marginL, marginT, marginL, marginT+plotH))
	b.WriteString(fmt.Sprintf(`<line x1="%g" y1="%g" x2="%g" y2="%g" stroke="black"/>`+"\n",
		marginL, marginT+plotH, marginL+plotW, marginT+plotH))

	// Ticks and grid.
	for _, tv := range niceTicks(xLo, xHi, 7) {
		x := sx(tv)
		b.WriteString(fmt.Sprintf(`<line x1="%g" y1="%g" x2="%g" y2="%g" stroke="#ddd"/>`+"\n",
			x, marginT, x, marginT+plotH))
		b.WriteString(fmt.Sprintf(`<text x="%g" y="%g" text-anchor="middle">%s</text>`+"\n",
			x, marginT+plotH+18, fmtTick(tv)))
	}
	for _, tv := range niceTicks(yLo, yHi, 6) {
		y := sy(tv)
		b.WriteString(fmt.Sprintf(`<line x1="%g" y1="%g" x2="%g" y2="%g" stroke="#ddd"/>`+"\n",
			marginL, y, marginL+plotW, y))
		b.WriteString(fmt.Sprintf(`<text x="%g" y="%g" text-anchor="end">%s</text>`+"\n",
			marginL-6, y+4, fmtTick(tv)))
	}
	// Axis labels.
	b.WriteString(fmt.Sprintf(`<text x="%g" y="%g" text-anchor="middle">%s</text>`+"\n",
		marginL+plotW/2, height-16, escape(c.XLabel)))
	b.WriteString(fmt.Sprintf(`<text x="18" y="%g" text-anchor="middle" transform="rotate(-90 18 %g)">%s</text>`+"\n",
		marginT+plotH/2, marginT+plotH/2, escape(c.YLabel)))

	// Lines + legend.
	for i, l := range c.Lines {
		color := palette[i%len(palette)]
		dash := dashes[i%len(dashes)]
		var pts []string
		for j := range l.X {
			if math.IsNaN(l.Y[j]) {
				continue
			}
			pts = append(pts, fmt.Sprintf("%.2f,%.2f", sx(l.X[j]), sy(l.Y[j])))
		}
		attr := ""
		if dash != "" {
			attr = fmt.Sprintf(` stroke-dasharray="%s"`, dash)
		}
		b.WriteString(fmt.Sprintf(`<polyline points="%s" fill="none" stroke="%s" stroke-width="2"%s/>`+"\n",
			strings.Join(pts, " "), color, attr))
		for j := range l.X {
			if math.IsNaN(l.Y[j]) {
				continue
			}
			b.WriteString(fmt.Sprintf(`<circle cx="%.2f" cy="%.2f" r="3" fill="%s"/>`+"\n",
				sx(l.X[j]), sy(l.Y[j]), color))
		}
		// Legend entry.
		lx := marginL + plotW - 150
		ly := marginT + 10 + float64(i)*20
		b.WriteString(fmt.Sprintf(`<line x1="%g" y1="%g" x2="%g" y2="%g" stroke="%s" stroke-width="2"%s/>`+"\n",
			lx, ly, lx+28, ly, color, attr))
		b.WriteString(fmt.Sprintf(`<text x="%g" y="%g">%s</text>`+"\n", lx+34, ly+4, escape(l.Label)))
	}
	b.WriteString("</svg>\n")
	_, err := io.WriteString(w, b.String())
	return err
}

func escape(s string) string {
	r := strings.NewReplacer("&", "&amp;", "<", "&lt;", ">", "&gt;", `"`, "&quot;")
	return r.Replace(s)
}
