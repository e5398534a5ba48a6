// Command dabr manages the DAbR-style reputation model: synthesize a
// Talos-like IP attribute feed, train the model, and evaluate scoring
// quality.
//
//	dabr generate -n 5000 -overlap 0.55 -out feed.csv
//	dabr train    -data feed.csv -out model.json
//	dabr eval     -data feed.csv -model model.json
//	dabr score    -model model.json -data feed.csv -ip 203.0.113.9
//
// Running without a subcommand performs generate→train→eval in memory on
// the calibrated defaults and prints the quality table (experiment E3).
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"log"
	"math/rand/v2"
	"os"

	"aipow/internal/control"
	"aipow/internal/dataset"
	"aipow/internal/metrics"
	"aipow/internal/reputation"
)

func main() {
	log.SetFlags(0)
	// -h has already printed the usage.
	if err := run(os.Args[1:], os.Stdout); err != nil && !errors.Is(err, flag.ErrHelp) {
		log.Fatalf("dabr: %v", err)
	}
}

func run(args []string, stdout io.Writer) error {
	if len(args) == 0 {
		return runDefault(stdout)
	}
	switch args[0] {
	case "generate":
		return runGenerate(args[1:], stdout)
	case "train":
		return runTrain(args[1:], stdout)
	case "eval":
		return runEval(args[1:], stdout)
	case "score":
		return runScore(args[1:], stdout)
	}
	return fmt.Errorf("unknown subcommand %q (want generate, train, eval or score)", args[0])
}

// runDefault reproduces experiment E3 end to end: generate the calibrated
// feed, split it 80/20, train the model and score the held-out set.
func runDefault(stdout io.Writer) error {
	const seed = 3
	threshold := reputation.MaxScore / 2
	raw, err := dataset.Generate(dataset.DefaultConfig())
	if err != nil {
		return err
	}
	trainRaw, testRaw := dataset.Split(raw, 0.8, rand.New(rand.NewPCG(seed, 0xACC)))
	train, test := control.FeedSamples(trainRaw), control.FeedSamples(testRaw)
	model, err := reputation.Train(train,
		reputation.WithClusters(reputation.DefaultClusters), reputation.WithSeed(seed))
	if err != nil {
		return err
	}
	ev, err := reputation.Evaluate(model, test, threshold)
	if err != nil {
		return err
	}
	t := metrics.NewTable(
		fmt.Sprintf("Reputation model quality (train=%d test=%d threshold=%.1f; DAbR reports 0.80 accuracy)",
			len(train), len(test), threshold),
		"scorer", "accuracy", "precision", "recall", "f1")
	t.AddRow("dabr_centroids", ev.Accuracy(), ev.Precision(), ev.Recall(), ev.F1())
	return t.Render(stdout)
}

func runGenerate(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("generate", flag.ContinueOnError)
	cfg := dataset.DefaultConfig()
	fs.IntVar(&cfg.N, "n", cfg.N, "number of samples")
	fs.Float64Var(&cfg.MaliciousFraction, "malicious", cfg.MaliciousFraction, "malicious fraction [0,1]")
	fs.Float64Var(&cfg.Overlap, "overlap", cfg.Overlap, "class overlap [0,1]; 0.55 reproduces ~80% accuracy")
	fs.Uint64Var(&cfg.Seed, "seed", cfg.Seed, "generator seed")
	out := fs.String("out", "feed.csv", "output CSV path")
	if err := fs.Parse(args); err != nil {
		return err
	}
	samples, err := dataset.Generate(cfg)
	if err != nil {
		return err
	}
	if err := writeFile(*out, func(f *os.File) error { return dataset.WriteCSV(f, samples) }); err != nil {
		return err
	}
	fmt.Fprintf(stdout, "wrote %d samples to %s\n", len(samples), *out)
	return nil
}

func runTrain(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("train", flag.ContinueOnError)
	data := fs.String("data", "feed.csv", "training CSV (from dabr generate)")
	out := fs.String("out", "model.json", "model output path")
	clusters := fs.Int("clusters", reputation.DefaultClusters, "malicious centroids")
	seed := fs.Uint64("seed", 1, "training seed")
	if err := fs.Parse(args); err != nil {
		return err
	}
	raw, err := dataset.ReadCSVFile(*data)
	if err != nil {
		return err
	}
	samples := control.FeedSamples(raw)
	model, err := reputation.Train(samples,
		reputation.WithClusters(*clusters), reputation.WithSeed(*seed))
	if err != nil {
		return err
	}
	if err := writeFile(*out, func(f *os.File) error { return model.Save(f) }); err != nil {
		return err
	}
	distMal, distBen := model.Calibration()
	fmt.Fprintf(stdout, "trained on %d samples (%d centroids, anchors %.4f/%.4f); saved to %s\n",
		len(samples), model.Clusters(), distMal, distBen, *out)
	return nil
}

func runEval(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("eval", flag.ContinueOnError)
	data := fs.String("data", "feed.csv", "evaluation CSV")
	modelPath := fs.String("model", "model.json", "trained model path")
	threshold := fs.Float64("threshold", reputation.MaxScore/2, "malicious-classification score threshold")
	if err := fs.Parse(args); err != nil {
		return err
	}
	raw, err := dataset.ReadCSVFile(*data)
	if err != nil {
		return err
	}
	samples := control.FeedSamples(raw)
	model, err := reputation.LoadFile(*modelPath)
	if err != nil {
		return err
	}
	ev, err := reputation.Evaluate(model, samples, *threshold)
	if err != nil {
		return err
	}
	fmt.Fprintln(stdout, ev)
	return nil
}

func runScore(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("score", flag.ContinueOnError)
	data := fs.String("data", "feed.csv", "feed CSV holding the IP's attributes")
	modelPath := fs.String("model", "model.json", "trained model path")
	ip := fs.String("ip", "", "IP address to score (must appear in the feed)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *ip == "" {
		return fmt.Errorf("score requires -ip")
	}
	raw, err := dataset.ReadCSVFile(*data)
	if err != nil {
		return err
	}
	model, err := reputation.LoadFile(*modelPath)
	if err != nil {
		return err
	}
	for _, s := range raw {
		if s.IP == *ip {
			score, err := model.Score(s.Attrs)
			if err != nil {
				return err
			}
			fmt.Fprintf(stdout, "%s -> reputation %.2f (0 trustworthy … 10 untrustworthy)\n", *ip, score)
			return nil
		}
	}
	return fmt.Errorf("ip %s not found in %s", *ip, *data)
}

// writeFile creates path, fills it with write and closes it, reporting a
// failed Close: a close error can mean the file was truncated.
func writeFile(path string, write func(*os.File) error) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := write(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
