package main

import (
	"crypto/sha256"
	_ "embed"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"strconv"

	"repro/internal/dataset"
	"repro/internal/telemetry"
)

// checkHeadlines verifies the paper's four headline figures on the
// final wave and the longitudinal fold: 1,114 servers; 9 certificate
// reuse clusters of at least 3 hosts, led by 385 hosts across 24 ASes;
// 493 accessible address spaces; 84 certificate renewals.
func checkHeadlines(o *outcome) error {
	if len(o.analyses) == 0 || o.long == nil {
		return errors.New("campaign produced no analyses")
	}
	if len(o.tables) == 0 {
		return errors.New("report rendered no tables")
	}
	w := o.analyses[len(o.analyses)-1]
	var errs []error
	if len(w.Servers) != 1114 {
		errs = append(errs, fmt.Errorf("servers = %d, want 1114", len(w.Servers)))
	}
	clusters := w.ReuseClustersAtLeast(3)
	if len(clusters) != 9 || clusters[0].Hosts != 385 || clusters[0].ASes != 24 {
		errs = append(errs, fmt.Errorf("reuse clusters = %+v, want 9 led by 385 hosts / 24 ASes", clusters))
	}
	if w.Accessible != 493 {
		errs = append(errs, fmt.Errorf("accessible = %d, want 493", w.Accessible))
	}
	if len(o.long.Renewals) != 84 {
		errs = append(errs, fmt.Errorf("renewals = %d, want 84", len(o.long.Renewals)))
	}
	return errors.Join(errs...)
}

// digest returns the SHA-256 of the canonical NDJSON dataset. Duration
// (wall clock) and Bytes are zeroed first, as the repository's
// byte-identity tests do, so the digest covers measurement content only
// and is the same for every workload of one seed.
func digest(recs []*dataset.HostRecord) (string, error) {
	h := sha256.New()
	enc := dataset.NewEncoder(h)
	for _, r := range recs {
		norm := *r
		norm.Duration = 0
		norm.Bytes = 0
		if err := enc.Encode(&norm); err != nil {
			return "", err
		}
	}
	if err := enc.Flush(); err != nil {
		return "", err
	}
	return hex.EncodeToString(h.Sum(nil)), nil
}

//go:embed golden.json
var goldenJSON []byte

// goldenDigests is the reference dataset digest per seed, shared by
// every workload.
var goldenDigests = func() map[string]string {
	var g struct {
		Digests map[string]string `json:"digests"`
	}
	if err := json.Unmarshal(goldenJSON, &g); err != nil {
		panic("golden.json: " + err.Error())
	}
	return g.Digests
}()

// checkDigest compares the dataset digest for seed with golden.json. A
// seed golden.json does not list is not checked; the message gives the
// digest to add.
func checkDigest(seed int64, got string) error {
	want, ok := goldenDigests[strconv.FormatInt(seed, 10)]
	if !ok {
		fmt.Fprintf(os.Stderr, "campbench: golden.json has no digest for seed %d (this run: %s); digest not checked\n", seed, got)
		return nil
	}
	if got != want {
		return fmt.Errorf("dataset digest %s, want %s for seed %d", got, want, seed)
	}
	return nil
}

// verify checks one campaign's outcome: the paper headlines and the
// dataset digest. It returns the record count and the records with a
// resilience failure class.
func verify(seed int64, o *outcome) (records, failed int, err error) {
	recs := o.records()
	for _, r := range recs {
		if r.FailureClass != "" {
			failed++
		}
	}
	sum, err := digest(recs)
	if err != nil {
		return len(recs), failed, err
	}
	return len(recs), failed, errors.Join(checkHeadlines(o), checkDigest(seed, sum))
}

// exactCounts names the counts that must repeat exactly between two
// campaigns of one build, workload and seed; any difference is
// nondeterminism. They are compared between campaigns of the same run,
// never with committed figures, so a change that does less work still
// passes. The uarsa miss counts are not among them: the engine's
// Get/Put has no in-flight deduplication, so two connections that need
// the same result at once both miss, and a miss moves to a hit or back
// between runs (decrypt misses read 834 and 835 on delta, seed 2020).
// The number of lookups does repeat exactly.
var exactCounts = []string{
	"scanner.probes", "scanner.grabs", "dataset.records", "uasc.handshakes",
	"uarsa.lookups", "wavediff.hits", "wavediff.misses",
}

// countsOf reads the exact counts from a campaign's telemetry and its
// record count.
func countsOf(snap *telemetry.Snapshot, records int) map[string]uint64 {
	c := snap.CounterTotal
	var lookups uint64
	for _, op := range []string{"sign", "verify", "decrypt"} {
		lookups += c("crypto_"+op+"_hits") + c("crypto_"+op+"_misses")
	}
	return map[string]uint64{
		"scanner.probes":  c("scan_probes"),
		"scanner.grabs":   c("grab_done"),
		"dataset.records": uint64(records),
		"uasc.handshakes": c("handshake_attempts"),
		"uarsa.lookups":   lookups,
		"wavediff.hits":   c("wave_delta_hits"),
		"wavediff.misses": c("wave_delta_misses"),
	}
}

// compareCounts reports every exact count that differs between two
// campaigns of one build, workload and seed.
func compareCounts(got, want map[string]uint64) error {
	var errs []error
	for _, name := range exactCounts {
		if got[name] != want[name] {
			errs = append(errs, fmt.Errorf("%s = %d in the traced campaign, %d in the reference campaign (nondeterminism)",
				name, got[name], want[name]))
		}
	}
	return errors.Join(errs...)
}
