// Command ctcgen generates the synthetic network analogues (and their
// ground-truth communities) used by the experiments, writing standard edge
// lists that ctcsearch and any other tool can consume.
//
// Usage:
//
//	ctcgen -list
//	ctcgen -network dblp -out dblp.txt [-truth dblp-communities.txt]
package main

import (
	"bufio"
	"flag"
	"fmt"
	"os"

	"repro/internal/gen"
	"repro/internal/graph"
)

func main() {
	var (
		list    = flag.Bool("list", false, "list available networks with statistics")
		network = flag.String("network", "", "network to generate")
		out     = flag.String("out", "", "edge-list output file (default stdout)")
		truth   = flag.String("truth", "", "also write ground-truth communities to this file")
	)
	flag.Parse()
	if err := run(*list, *network, *out, *truth); err != nil {
		fmt.Fprintln(os.Stderr, "ctcgen:", err)
		os.Exit(1)
	}
}

func run(list bool, network, out, truth string) error {
	if list {
		fmt.Println("available networks (synthetic analogues of the paper's Table 2):")
		for _, nw := range gen.SharedNetworks() {
			g := nw.Graph()
			gt := "-"
			if nw.HasGroundTruth {
				gt = fmt.Sprintf("%d communities", len(nw.GroundTruth()))
			}
			fmt.Printf("  %-12s |V|=%-7d |E|=%-8d dmax=%-6d ground truth: %s\n",
				nw.Name, g.N(), g.M(), g.MaxDegree(), gt)
		}
		return nil
	}
	if network == "" {
		return fmt.Errorf("need -network NAME or -list")
	}
	nw, err := gen.NetworkByName(network)
	if err != nil {
		return err
	}
	g, comms := nw.Graph(), nw.GroundTruth()
	w := os.Stdout
	if out != "" {
		f, err := os.Create(out)
		if err != nil {
			return err
		}
		defer f.Close()
		w = f
	}
	if err := graph.WriteEdgeList(w, g); err != nil {
		return err
	}
	if out != "" {
		fmt.Printf("wrote %s: %d vertices, %d edges\n", out, g.N(), g.M())
	}
	if truth != "" {
		if comms == nil {
			return fmt.Errorf("network %s has no ground-truth communities", network)
		}
		f, err := os.Create(truth)
		if err != nil {
			return err
		}
		defer f.Close()
		bw := bufio.NewWriter(f)
		fmt.Fprintf(bw, "# %d ground-truth communities, one per line\n", len(comms))
		for _, c := range comms {
			for i, v := range c {
				if i > 0 {
					fmt.Fprint(bw, " ")
				}
				fmt.Fprint(bw, v)
			}
			fmt.Fprintln(bw)
		}
		if err := bw.Flush(); err != nil {
			return err
		}
		fmt.Printf("wrote %s: %d communities\n", truth, len(comms))
	}
	return nil
}
