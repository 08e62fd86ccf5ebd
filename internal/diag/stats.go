package diag

import "sramtest/internal/metrics"

// Diagnosis counters, cumulative since process start (or ResetStats) and
// purely observational. They let an operator watch the matcher economy
// (how many signatures were diagnosed, how much of the dictionary each
// one actually touched) and the streaming ingest volume without parsing
// logs.
var (
	statMatches   = metrics.NewCounter("sramd_diag_matches_total", "Completed dictionary matches (either matcher).")
	statExact     = metrics.NewCounter("sramd_diag_exact_total", "Matches that hit distance zero.")
	statFallbacks = metrics.NewCounter("sramd_diag_fallbacks_total", "Index queries served by the linear scan.")
	statScanned   = metrics.NewCounter("sramd_diag_scanned_total", "Full distance evaluations across all matches.")

	statStreamRequests = metrics.NewCounter("sramd_diag_stream_requests_total", "/v1/diagnose requests served.")
	statStreamSigs     = metrics.NewCounter("sramd_diag_stream_signatures_total", "Signatures diagnosed over the stream.")
	statStreamErrors   = metrics.NewCounter("sramd_diag_stream_errors_total", "Malformed or failed stream lines.")
	statStreamBytes    = metrics.NewCounter("sramd_diag_stream_bytes_total", "Request bytes consumed by the stream.")
)

func init() {
	metrics.GaugeFunc("sramd_diag_mean_scanned", "Mean distance evaluations per match since start.",
		func() float64 { return Stats().MeanScanned() })
}

// MatchStats is a snapshot of the cumulative diagnosis counters.
type MatchStats struct {
	Matches   int64 // completed Match calls (either matcher)
	Exact     int64 // matches with a perfect dictionary hit
	Fallbacks int64 // index queries that fell back to the linear scan
	Scanned   int64 // full distance evaluations performed

	StreamRequests   int64 // /v1/diagnose requests served
	StreamSignatures int64 // signatures diagnosed over the stream
	StreamErrors     int64 // malformed or failed stream lines
	StreamBytes      int64 // request bytes consumed by the stream
}

// Stats returns a snapshot of the cumulative diagnosis counters.
func Stats() MatchStats {
	return MatchStats{
		Matches:          statMatches.Load(),
		Exact:            statExact.Load(),
		Fallbacks:        statFallbacks.Load(),
		Scanned:          statScanned.Load(),
		StreamRequests:   statStreamRequests.Load(),
		StreamSignatures: statStreamSigs.Load(),
		StreamErrors:     statStreamErrors.Load(),
		StreamBytes:      statStreamBytes.Load(),
	}
}

// MeanScanned returns the mean number of full distance evaluations per
// match, or 0 when nothing ran — the entry count for the linear scan,
// far below it for the inverted index.
func (s MatchStats) MeanScanned() float64 {
	if s.Matches == 0 {
		return 0
	}
	return float64(s.Scanned) / float64(s.Matches)
}

// ResetStats zeroes all diagnosis counters (test/benchmark hygiene).
func ResetStats() {
	for _, c := range []*metrics.Counter{
		statMatches, statExact, statFallbacks, statScanned,
		statStreamRequests, statStreamSigs, statStreamErrors, statStreamBytes,
	} {
		c.Reset()
	}
}

// countMatch records one completed match that evaluated scanned full
// distances.
func countMatch(scanned int64, exact bool) {
	statMatches.Add(1)
	statScanned.Add(scanned)
	if exact {
		statExact.Add(1)
	}
}

// CountIndexMatch records one completed indexed match that evaluated
// scanned full distances (one per unique-signature group visited).
func CountIndexMatch(scanned int64, exact bool) { countMatch(scanned, exact) }

// CountFallback records an index query answered by the linear scan
// (non-flow condition sets; the linear path itself counts the match).
func CountFallback() { statFallbacks.Add(1) }

// CountStream records one streaming diagnosis request: signatures
// diagnosed, malformed/failed lines, and request bytes consumed.
func CountStream(sigs, errs, bytes int64) {
	statStreamRequests.Add(1)
	statStreamSigs.Add(sigs)
	statStreamErrors.Add(errs)
	statStreamBytes.Add(bytes)
}
