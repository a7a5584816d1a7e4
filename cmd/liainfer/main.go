// Command liainfer is the central-server batch tool: it learns the link
// variances from all snapshots but the last and infers the per-link loss
// rates of the last one, using the public lia Engine and SnapshotSource
// API.
//
// Two input modes:
//
// Classic (-in): one JSON document carrying topology and measurements:
//
//	{
//	  "probes": 1000,
//	  "paths": [{"beacon": 0, "dst": 5, "links": [1, 2, 3]}, ...],
//	  "snapshots": [[0.99, 1.0, ...], ...]   // received fraction per path
//	}
//
// Streaming (-topo + -stream): the topology document (probes + paths, no
// snapshots) plus a newline-delimited measurement file — one JSON array of
// received fractions per line, or collector-format {"frac": [...]} lines —
// read through a file-based lia.SnapshotSource.
//
// Output: one line per virtual link with the inferred loss rate, the
// learned variance, and the member physical links, or JSON with -json.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"

	"lia"
)

// Input is the classic measurement file schema; TopoInput (the -topo
// schema) is the same document without snapshots.
type Input struct {
	Probes    int         `json:"probes"`
	Paths     []pathSpec  `json:"paths"`
	Snapshots [][]float64 `json:"snapshots"`
}

type pathSpec struct {
	Beacon int   `json:"beacon"`
	Dst    int   `json:"dst"`
	Links  []int `json:"links"`
}

// Output is the machine-readable result schema.
type Output struct {
	Kept      int          `json:"kept"`
	Removed   int          `json:"removed"`
	Threshold float64      `json:"threshold"`
	Links     []LinkResult `json:"links"`
}

// LinkResult describes one virtual link's inference.
type LinkResult struct {
	Members   []int   `json:"members"`
	LossRate  float64 `json:"loss_rate"`
	Variance  float64 `json:"variance"`
	Kept      bool    `json:"kept"`
	Congested bool    `json:"congested"`
}

func main() {
	if err := run(os.Args[1:], os.Stdin, os.Stdout, os.Stderr); err != nil {
		fmt.Fprintf(os.Stderr, "liainfer: %v\n", err)
		os.Exit(2)
	}
}

func run(args []string, stdin io.Reader, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("liainfer", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		file     = fs.String("in", "-", "measurement file (JSON); - for stdin")
		topoFile = fs.String("topo", "", "topology file (JSON, probes+paths) for streaming mode")
		stream   = fs.String("stream", "", "newline-delimited snapshot file (streaming mode; requires -topo)")
		asJSON   = fs.Bool("json", false, "emit JSON instead of text")
		strategy = fs.String("strategy", "paper", "phase-2 elimination: paper or greedy")
		tl       = fs.Float64("tl", lia.DefaultThreshold, "congestion threshold (explicit 0 flags any inferred loss)")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}

	var input Input
	switch {
	case *stream != "" && *topoFile == "":
		return errors.New("-stream requires -topo")
	case *topoFile != "" && *stream == "":
		return errors.New("-topo requires -stream")
	case *stream != "":
		f, err := os.Open(*topoFile)
		if err != nil {
			return err
		}
		err = json.NewDecoder(f).Decode(&input)
		f.Close()
		if err != nil {
			return fmt.Errorf("decode topology: %w", err)
		}
	case *file == "-":
		if err := json.NewDecoder(stdin).Decode(&input); err != nil {
			return fmt.Errorf("decode input: %w", err)
		}
	default:
		f, err := os.Open(*file)
		if err != nil {
			return err
		}
		err = json.NewDecoder(f).Decode(&input)
		f.Close()
		if err != nil {
			return fmt.Errorf("decode input: %w", err)
		}
	}
	if input.Probes <= 0 {
		input.Probes = 1000
	}

	paths := make([]lia.Path, len(input.Paths))
	for i, p := range input.Paths {
		paths[i] = lia.Path{Beacon: p.Beacon, Dst: p.Dst, Links: p.Links}
	}
	paths, dropped := lia.RemoveFluttering(paths)
	if len(dropped) > 0 {
		fmt.Fprintf(stderr, "liainfer: dropped %d fluttering paths (T.2): %v\n", len(dropped), dropped)
	}
	rm, err := lia.NewTopology(paths)
	if err != nil {
		return err
	}

	opts := []lia.Option{lia.WithThreshold(*tl)}
	switch *strategy {
	case "paper":
	case "greedy":
		opts = append(opts, lia.WithStrategy(lia.StrategyGreedyBasis))
	default:
		return fmt.Errorf("unknown -strategy %q", *strategy)
	}
	eng, err := lia.NewEngine(rm, opts...)
	if err != nil {
		return err
	}

	var src lia.SnapshotSource
	if *stream != "" {
		fsrc, err := lia.OpenFileSource(*stream, input.Probes)
		if err != nil {
			return err
		}
		defer fsrc.Close()
		src = fsrc
	} else {
		src = lia.NewTraceSource(input.Snapshots, input.Probes)
	}

	ctx := context.Background()
	last, err := ingestAllButLast(ctx, eng, src)
	if err != nil {
		return err
	}
	if eng.Snapshots() < 2 {
		return fmt.Errorf("need at least 3 snapshots (2 to learn, 1 to infer), have %d", eng.Snapshots()+1)
	}
	congested, res, err := eng.InferCongested(ctx, last.Y)
	if err != nil {
		return err
	}

	out := Output{Kept: len(res.Kept), Removed: len(res.Removed), Threshold: eng.Threshold()}
	keptSet := make(map[int]bool)
	for _, k := range res.Kept {
		keptSet[k] = true
	}
	for k := 0; k < rm.NumLinks(); k++ {
		out.Links = append(out.Links, LinkResult{
			Members:   rm.Members(k),
			LossRate:  res.LossRates[k],
			Variance:  res.Variances[k],
			Kept:      keptSet[k],
			Congested: congested[k],
		})
	}
	if *asJSON {
		enc := json.NewEncoder(stdout)
		enc.SetIndent("", "  ")
		return enc.Encode(out)
	}
	fmt.Fprintf(stdout, "learned from %d snapshots over %d paths, %d virtual links (kept %d in R*)\n",
		eng.Snapshots(), rm.NumPaths(), rm.NumLinks(), len(res.Kept))
	for k, lr := range out.Links {
		status := "eliminated (≈0)"
		if lr.Kept {
			status = "solved"
		}
		if lr.Congested {
			status += " CONGESTED"
		}
		fmt.Fprintf(stdout, "link %3d members=%v loss=%.5f variance=%.3g %s\n",
			k, lr.Members, lr.LossRate, lr.Variance, status)
	}
	return nil
}

// ingestAllButLast streams the source into the engine holding one snapshot
// back, and returns that final snapshot as the inference target.
func ingestAllButLast(ctx context.Context, eng *lia.Engine, src lia.SnapshotSource) (lia.Snapshot, error) {
	pending, err := src.Next(ctx)
	if err != nil {
		if errors.Is(err, io.EOF) {
			return lia.Snapshot{}, errors.New("no snapshots in input")
		}
		return lia.Snapshot{}, err
	}
	for {
		next, err := src.Next(ctx)
		if errors.Is(err, io.EOF) {
			return pending, nil
		}
		if err != nil {
			return lia.Snapshot{}, err
		}
		if err := eng.Ingest(pending.Y); err != nil {
			return lia.Snapshot{}, err
		}
		pending = next
	}
}
