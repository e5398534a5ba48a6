package dataset

import (
	"encoding/csv"
	"fmt"
	"io"
	"os"
	"slices"
	"strconv"
	"strings"
)

// csv layout: ip,label,family,<attributes in canonical order>.
const (
	colIP     = 0
	colLabel  = 1
	colFamily = 2
	colAttrs  = 3
)

// WriteCSV serializes samples with a header row. Attribute columns follow
// the canonical schema order from Attributes().
func WriteCSV(w io.Writer, samples []Sample) error {
	cw := csv.NewWriter(w)
	schema := Attributes()
	header := []string{"ip", "label", "family"}
	for _, a := range schema {
		header = append(header, a.Name)
	}
	if err := cw.Write(header); err != nil {
		return fmt.Errorf("dataset: write header: %w", err)
	}
	row := make([]string, len(header))
	for i, s := range samples {
		row[colIP] = s.IP
		if s.Malicious {
			row[colLabel] = "malicious"
		} else {
			row[colLabel] = "benign"
		}
		row[colFamily] = s.Family
		for j, a := range schema {
			v, ok := s.Attrs[a.Name]
			if !ok {
				return fmt.Errorf("dataset: sample %d missing attribute %q", i, a.Name)
			}
			row[colAttrs+j] = strconv.FormatFloat(v, 'g', -1, 64)
		}
		if err := cw.Write(row); err != nil {
			return fmt.Errorf("dataset: write row %d: %w", i, err)
		}
	}
	cw.Flush()
	if err := cw.Error(); err != nil {
		return fmt.Errorf("dataset: flush: %w", err)
	}
	return nil
}

// ReadCSVFile reads the dataset CSV file at path (see ReadCSV).
func ReadCSVFile(path string) ([]Sample, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return ReadCSV(f)
}

// ReadCSV parses a dataset previously written by WriteCSV. Unknown
// attribute columns are preserved; missing schema columns are an error only
// if a row references them, so the format tolerates schema evolution.
func ReadCSV(r io.Reader) ([]Sample, error) {
	// Rows are parsed before the next Read, so they may share one backing
	// array; the header outlives that and is cloned below.
	cr := csv.NewReader(r)
	cr.ReuseRecord = true
	header, err := cr.Read()
	if err != nil {
		return nil, fmt.Errorf("dataset: read header: %w", err)
	}
	if len(header) < colAttrs {
		return nil, fmt.Errorf("dataset: header too short: %v", header)
	}
	if header[colIP] != "ip" || header[colLabel] != "label" || header[colFamily] != "family" {
		return nil, fmt.Errorf("dataset: unexpected header prefix: %v", header[:colAttrs])
	}
	header = slices.Clone(header)
	var samples []Sample
	for line := 2; ; line++ {
		row, err := cr.Read()
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, fmt.Errorf("dataset: read line %d: %w", line, err)
		}
		if len(row) != len(header) {
			return nil, fmt.Errorf("dataset: line %d has %d fields, want %d", line, len(row), len(header))
		}
		// Every field of a row is a substring of one string per line;
		// cloning the two kept as strings lets the line go, where a
		// feed keyed by IP would otherwise hold every line for good.
		s := Sample{
			IP:     strings.Clone(row[colIP]),
			Family: strings.Clone(row[colFamily]),
			Attrs:  make(map[string]float64, len(header)-colAttrs),
		}
		switch row[colLabel] {
		case "malicious":
			s.Malicious = true
		case "benign":
			s.Malicious = false
		default:
			return nil, fmt.Errorf("dataset: line %d has unknown label %q", line, row[colLabel])
		}
		for j := colAttrs; j < len(header); j++ {
			v, err := strconv.ParseFloat(row[j], 64)
			if err != nil {
				return nil, fmt.Errorf("dataset: line %d attribute %q: %w", line, header[j], err)
			}
			s.Attrs[header[j]] = v
		}
		samples = append(samples, s)
	}
	return samples, nil
}
