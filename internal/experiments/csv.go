package experiments

import (
	"encoding/csv"
	"fmt"
	"io"
	"strconv"

	"ccnvm/internal/design"
)

// WriteCSV emits the Figure 5 matrix as tidy CSV (one row per design x
// benchmark cell) for external plotting pipelines.
func (f *Fig5) WriteCSV(w io.Writer) error {
	cw := csv.NewWriter(w)
	header := []string{"design", "label", "benchmark", "ipc", "norm_ipc", "writes", "norm_writes"}
	if err := cw.Write(header); err != nil {
		return fmt.Errorf("experiments: csv: %w", err)
	}
	for _, d := range f.Designs {
		for _, b := range f.Benchmarks {
			c := f.Cells[d][b]
			rec := []string{
				d, design.Label(d), b,
				strconv.FormatFloat(c.IPC, 'f', 6, 64),
				strconv.FormatFloat(c.NormIPC, 'f', 6, 64),
				strconv.FormatUint(c.Writes, 10),
				strconv.FormatFloat(c.NormWrite, 'f', 6, 64),
			}
			if err := cw.Write(rec); err != nil {
				return fmt.Errorf("experiments: csv: %w", err)
			}
		}
	}
	cw.Flush()
	return cw.Error()
}

// WriteCSV emits a sensitivity sweep as tidy CSV (one row per design x
// parameter point).
func (f *Fig6) WriteCSV(w io.Writer) error {
	cw := csv.NewWriter(w)
	if err := cw.Write([]string{"design", "label", "param", "norm_ipc", "norm_writes"}); err != nil {
		return fmt.Errorf("experiments: csv: %w", err)
	}
	for _, d := range f.Designs {
		for _, p := range f.Points[d] {
			rec := []string{
				d, design.Label(d),
				strconv.FormatUint(p.Param, 10),
				strconv.FormatFloat(p.NormIPC, 'f', 6, 64),
				strconv.FormatFloat(p.NormWrite, 'f', 6, 64),
			}
			if err := cw.Write(rec); err != nil {
				return fmt.Errorf("experiments: csv: %w", err)
			}
		}
	}
	cw.Flush()
	return cw.Error()
}
