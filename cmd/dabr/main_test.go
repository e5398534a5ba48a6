package main

import (
	"os"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"testing"
)

// runOK runs one dabr invocation and returns what it printed.
func runOK(t *testing.T, args ...string) string {
	t.Helper()
	var out strings.Builder
	if err := run(args, &out); err != nil {
		t.Fatalf("dabr %s: %v\n%s", strings.Join(args, " "), err, out.String())
	}
	return out.String()
}

// TestGenerateTrainEvalScore walks the file workflow: generate a feed,
// train a model on it, then evaluate and score with the saved model.
func TestGenerateTrainEvalScore(t *testing.T) {
	dir := t.TempDir()
	feed, model := filepath.Join(dir, "feed.csv"), filepath.Join(dir, "model.json")

	if out := runOK(t, "generate", "-n", "2000", "-out", feed); !strings.Contains(out, "wrote 2000 samples") {
		t.Fatalf("generate printed %q", out)
	}
	if out := runOK(t, "train", "-data", feed, "-out", model); !strings.Contains(out, "trained on 2000 samples") {
		t.Fatalf("train printed %q", out)
	}

	// The synthetic feed is calibrated to DAbR's reported ~80% accuracy.
	out := runOK(t, "eval", "-data", feed, "-model", model)
	m := regexp.MustCompile(`acc=([0-9.]+)`).FindStringSubmatch(out)
	if m == nil {
		t.Fatalf("eval printed %q", out)
	}
	if acc, _ := strconv.ParseFloat(m[1], 64); acc < 0.7 || acc > 0.9 {
		t.Fatalf("eval accuracy %v, want DAbR's ~0.8", acc)
	}

	raw, err := os.ReadFile(feed)
	if err != nil {
		t.Fatal(err)
	}
	ip, _, _ := strings.Cut(strings.Split(string(raw), "\n")[1], ",")
	if out := runOK(t, "score", "-data", feed, "-model", model, "-ip", ip); !strings.HasPrefix(out, ip+" -> reputation ") {
		t.Fatalf("score printed %q", out)
	}
}

// TestDefaultRunPrintsQualityTable: with no subcommand dabr trains and
// evaluates in memory and prints both scorers' quality rows.
func TestDefaultRunPrintsQualityTable(t *testing.T) {
	out := runOK(t)
	for _, row := range []string{"dabr_centroids", "knn(k=15)"} {
		if !strings.Contains(out, row) {
			t.Errorf("quality table lacks %s:\n%s", row, out)
		}
	}
}

func TestUnknownSubcommandFails(t *testing.T) {
	err := run([]string{"frobnicate"}, &strings.Builder{})
	if err == nil || !strings.Contains(err.Error(), "unknown subcommand") {
		t.Fatalf("err = %v, want an unknown-subcommand error", err)
	}
}
