// Package exp regenerates every table and figure of the paper's evaluation
// (Section 6) on the synthetic network analogues: Exp-1's query-parameter
// sweeps (Figures 5-10), the index accounting of Table 3, the Figure 11
// case study, the ground-truth quality comparison of Figure 12, the
// approximation studies of Figures 13-14, and the LCTC parameter sweeps of
// Figures 15-16, plus ablations for the design decisions discussed in §7.1.
//
// Every driver returns renderable Figure/Table values; cmd/ctcbench prints
// them.
package exp

import (
	"context"
	"fmt"
	"io"
	"math"
	"strings"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/gen"
	"repro/internal/trussindex"
)

// Config tunes experiment scale. The zero value gives defaults sized so the
// full suite completes in minutes (the paper averaged over 100 queries per
// point on server hardware; we default to fewer).
type Config struct {
	// QueriesPerPoint is how many random queries each data point averages
	// over (default 8).
	QueriesPerPoint int
	// Seed drives query sampling.
	Seed uint64
	// BasicTimeout caps each Basic run; beyond it the point reports Inf,
	// mirroring the paper's 1-hour cutoff (default 2s).
	BasicTimeout time.Duration
	// Quiet suppresses progress output.
	Quiet bool
	// Progress, when non-nil, receives progress lines (defaults to none).
	Progress io.Writer
}

func (c Config) queries() int {
	if c.QueriesPerPoint <= 0 {
		return 8
	}
	return c.QueriesPerPoint
}

func (c Config) seed() uint64 {
	if c.Seed == 0 {
		return 0x5EED
	}
	return c.Seed
}

func (c Config) basicTimeout() time.Duration {
	if c.BasicTimeout <= 0 {
		return 2 * time.Second
	}
	return c.BasicTimeout
}

func (c Config) progressf(format string, args ...interface{}) {
	if c.Quiet || c.Progress == nil {
		return
	}
	fmt.Fprintf(c.Progress, format, args...)
}

// Inf is the sentinel for timed-out measurements in figures.
var Inf = math.Inf(1)

// Series is one named line of a figure.
type Series struct {
	Name string
	Y    []float64
}

// Figure is a paper figure: x tick labels and one or more series.
type Figure struct {
	ID     string
	Title  string
	XLabel string
	X      []string
	YLabel string
	Series []Series
}

// Render prints the figure as an aligned text table, one row per x value.
func (f *Figure) Render(w io.Writer) {
	fmt.Fprintf(w, "%s — %s\n", f.ID, f.Title)
	header := make([]string, 0, len(f.Series)+1)
	header = append(header, f.XLabel)
	for _, s := range f.Series {
		header = append(header, s.Name)
	}
	rows := make([][]string, len(f.X))
	for i, x := range f.X {
		row := []string{x}
		for _, s := range f.Series {
			row = append(row, formatCell(s.Y[i]))
		}
		rows[i] = row
	}
	renderAligned(w, header, rows)
	fmt.Fprintf(w, "  (y: %s)\n\n", f.YLabel)
}

// Table is a paper table.
type Table struct {
	ID     string
	Title  string
	Header []string
	Rows   [][]string
}

// Render prints the table aligned.
func (t *Table) Render(w io.Writer) {
	fmt.Fprintf(w, "%s — %s\n", t.ID, t.Title)
	renderAligned(w, t.Header, t.Rows)
	fmt.Fprintln(w)
}

func renderAligned(w io.Writer, header []string, rows [][]string) {
	width := make([]int, len(header))
	for i, h := range header {
		width[i] = len(h)
	}
	for _, row := range rows {
		for i, cell := range row {
			if i < len(width) && len(cell) > width[i] {
				width[i] = len(cell)
			}
		}
	}
	line := func(cells []string) {
		parts := make([]string, len(cells))
		for i, c := range cells {
			parts[i] = pad(c, width[i])
		}
		fmt.Fprintf(w, "  %s\n", strings.Join(parts, "  "))
	}
	line(header)
	dashes := make([]string, len(header))
	for i := range dashes {
		dashes[i] = strings.Repeat("-", width[i])
	}
	line(dashes)
	for _, row := range rows {
		line(row)
	}
}

func pad(s string, w int) string {
	if len(s) >= w {
		return s
	}
	return s + strings.Repeat(" ", w-len(s))
}

func formatCell(v float64) string {
	switch {
	case math.IsInf(v, 1):
		return "Inf"
	case math.IsNaN(v):
		return "-"
	case v != 0 && math.Abs(v) < 0.01:
		return fmt.Sprintf("%.2e", v)
	case math.Abs(v) >= 1000:
		return fmt.Sprintf("%.0f", v)
	default:
		return fmt.Sprintf("%.3g", v)
	}
}

// indexCache memoizes truss indexes per network (decomposing the larger
// analogues costs seconds and every experiment needs one).
var indexCache sync.Map // *gen.Network → *trussindex.Index

// IndexFor returns the cached truss index of a network.
func IndexFor(nw *gen.Network) *trussindex.Index {
	if v, ok := indexCache.Load(nw); ok {
		return v.(*trussindex.Index)
	}
	ix := trussindex.Build(nw.Graph())
	actual, _ := indexCache.LoadOrStore(nw, ix)
	return actual.(*trussindex.Index)
}

// SearcherFor returns a Searcher over the cached index of a network.
func SearcherFor(nw *gen.Network) *core.Searcher {
	return core.NewSearcher(IndexFor(nw))
}

// search answers req on s. A positive budget bounds the search with a
// context deadline; overrunning it returns an error matching
// context.DeadlineExceeded.
func search(s *core.Searcher, req core.Request, budget time.Duration) (*core.Community, error) {
	ctx := context.Background()
	if budget > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, budget)
		defer cancel()
	}
	res, err := s.Search(ctx, req)
	if err != nil {
		return nil, err
	}
	return &res.Community, nil
}

// timed runs fn and returns its duration in seconds.
func timed(fn func() error) (float64, error) {
	start := time.Now()
	err := fn()
	return time.Since(start).Seconds(), err
}
