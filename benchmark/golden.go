package main

import (
	_ "embed"
	"encoding/json"
	"fmt"
	"sort"
)

// goldenJSON pins every workload's seed-0 outputs. Regenerate it with
// `go test -run TestGoldens -update` after a deliberate engine change.
//
//go:embed testdata/golden.json
var goldenJSON []byte

// checkGoldens compares a workload's seed-0 reference outputs with the
// pinned ones.
func checkGoldens(workload string, got map[string]golden) error {
	var all map[string]map[string]golden
	if err := json.Unmarshal(goldenJSON, &all); err != nil {
		return fmt.Errorf("testdata/golden.json: %w", err)
	}
	want, ok := all[workload]
	if !ok {
		return fmt.Errorf("no goldens for %s", workload)
	}
	keys := make([]string, 0, len(want)+len(got))
	for k := range want {
		keys = append(keys, k)
	}
	for k := range got {
		if _, ok := want[k]; !ok {
			keys = append(keys, k)
		}
	}
	sort.Strings(keys)
	for _, k := range keys {
		if got[k] != want[k] {
			return fmt.Errorf("%s %s: got %+v, golden %+v", workload, k, got[k], want[k])
		}
	}
	return nil
}
