// Command ctcsearch answers closest-truss-community queries over an edge
// list or a generated synthetic network.
//
// Usage:
//
//	ctcsearch -graph graph.txt -q 12,35,77 [-algo lctc|basic|bd|truss] \
//	          [-k K] [-eta N] [-gamma G] [-v]
//	ctcsearch -network dblp -q 12,35,77
//
// It prints the community's trussness, size, density, query distance and
// diameter, and optionally the member vertices.
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"
	"time"

	"repro/internal/core"
	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/trussindex"
)

func main() {
	var (
		graphPath = flag.String("graph", "", "edge-list file (\"u v\" lines, # comments)")
		network   = flag.String("network", "", "synthetic network name (facebook, amazon, dblp, youtube, livejournal, orkut)")
		queryStr  = flag.String("q", "", "comma-separated query vertex IDs (required)")
		algo      = flag.String("algo", "lctc", "algorithm: "+core.AlgoSpellings())
		fixedK    = flag.Int("k", 0, "fixed trussness k (0 = maximize)")
		eta       = flag.Int("eta", 0, "LCTC expansion budget η (0 = default 1000)")
		gamma     = flag.Float64("gamma", 0, "LCTC truss-distance penalty γ (0 = default 3)")
		timeout   = flag.Duration("timeout", 0, "abort the search after this long (0 = no limit)")
		members   = flag.Bool("members", false, "print the community's vertex IDs")
		dotPath   = flag.String("dot", "", "write the community as a Graphviz DOT file")
		verify    = flag.Bool("v", false, "verify the result is a connected k-truss containing Q")
	)
	flag.Parse()
	if err := run(os.Stdout, *graphPath, *network, *queryStr, *algo, *fixedK, *eta, *gamma, *timeout, *members, *verify, *dotPath); err != nil {
		fmt.Fprintln(os.Stderr, "ctcsearch:", err)
		os.Exit(1)
	}
}

// run executes one search and writes the human-readable report to out (an
// explicit writer so the end-to-end golden test can capture and normalize
// the CLI's output).
func run(out io.Writer, graphPath, network, queryStr, algo string, fixedK, eta int,
	gamma float64, timeout time.Duration, members, verify bool, dotPath string) error {
	q, err := parseQuery(queryStr)
	if err != nil {
		return err
	}
	g, err := loadGraph(graphPath, network)
	if err != nil {
		return err
	}
	fmt.Fprintf(out, "graph: %d vertices, %d edges\n", g.N(), g.M())
	start := time.Now()
	s := core.NewSearcher(trussindex.Build(g))
	fmt.Fprintf(out, "truss index built in %v (max trussness %d)\n", time.Since(start).Round(time.Millisecond), s.Index().MaxTruss())
	// One request for every algorithm: the CLI decodes its flags into the
	// unified Request and calls Search. The historical -gamma -1 spelling
	// maps onto the explicit hop-distance mode; -timeout becomes a context
	// deadline that cancels the search mid-phase.
	req := core.Request{Q: q, K: int32(fixedK), Eta: eta, Verify: verify}
	if gamma < 0 {
		req.DistanceMode = core.DistHop
	} else {
		req.Gamma = gamma
	}
	var err2 error
	req.Algo, err2 = core.ParseAlgo(strings.ToLower(algo))
	if err2 != nil {
		return err2 // registry-derived: names every accepted spelling
	}
	ctx := context.Background()
	if timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, timeout)
		defer cancel()
	}
	start = time.Now()
	res, err := s.Search(ctx, req)
	if err != nil {
		return err
	}
	c := &res.Community
	elapsed := time.Since(start)
	fmt.Fprintf(out, "%s found a %d-truss community in %v\n", c.Algorithm, c.K, elapsed.Round(time.Microsecond))
	fmt.Fprintf(out, "  vertices:       %d\n", c.N())
	fmt.Fprintf(out, "  edges:          %d\n", c.M())
	fmt.Fprintf(out, "  density:        %.3f\n", c.Density())
	fmt.Fprintf(out, "  query distance: %d\n", c.QueryDist())
	fmt.Fprintf(out, "  diameter:       %d\n", c.Diameter())
	if members {
		fmt.Fprintf(out, "  members:        %v\n", c.Vertices())
	}
	if dotPath != "" {
		f, err := os.Create(dotPath)
		if err != nil {
			return err
		}
		defer f.Close()
		highlight := map[int]string{}
		for _, v := range c.Vertices() {
			highlight[v] = "lightblue"
		}
		for _, v := range q {
			highlight[v] = "gold"
		}
		if err := graph.WriteDOT(f, c.Subgraph(), &graph.DOTOptions{Name: "community", Highlight: highlight}); err != nil {
			return err
		}
		fmt.Fprintf(out, "  wrote %s\n", dotPath)
	}
	return nil
}

func parseQuery(s string) ([]int, error) {
	if s == "" {
		return nil, fmt.Errorf("missing -q (comma-separated vertex IDs)")
	}
	parts := strings.Split(s, ",")
	q := make([]int, 0, len(parts))
	for _, p := range parts {
		v, err := strconv.Atoi(strings.TrimSpace(p))
		if err != nil {
			return nil, fmt.Errorf("bad query vertex %q: %v", p, err)
		}
		q = append(q, v)
	}
	return q, nil
}

func loadGraph(graphPath, network string) (*graph.Graph, error) {
	switch {
	case graphPath != "" && network != "":
		return nil, fmt.Errorf("use either -graph or -network, not both")
	case graphPath != "":
		f, err := os.Open(graphPath)
		if err != nil {
			return nil, err
		}
		defer f.Close()
		return graph.ReadEdgeList(f)
	case network != "":
		nw, err := gen.NetworkByName(network)
		if err != nil {
			return nil, err
		}
		return nw.Graph(), nil
	default:
		return nil, fmt.Errorf("need -graph FILE or -network NAME")
	}
}
