package service

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
)

// Fleet-routing headers. A crrouter in front of several crsharing backends
// partitions the fingerprint space: every fingerprint has exactly one owning
// backend whose memo cache is authoritative for it. Routing normally sends a
// request straight to its owner, but during membership changes (a draining
// backend still owns its warm keys; a freshly admitted backend owns keys it
// has never seen) the receiving backend and the owning backend differ. The
// two headers below let the fleet still behave as one cache in that window.
const (
	// OwnerHeader carries the base URL of the backend that owns the request's
	// fingerprint. The router sets it only when it routed the request to a
	// NON-owner; a backend that misses its local cache on such a request
	// forwards the solve to the owner instead of re-solving from scratch.
	OwnerHeader = "X-CRFleet-Owner"
	// FillHeader marks a solve forwarded by a peer backend (a "cache fill").
	// The receiving owner answers it from its warm cache (or solves it once,
	// on everyone's behalf) and counts it as peer-fill work rather than a
	// client request, so a forwarded solve is attributed once fleet-wide.
	// Fills never carry OwnerHeader, which makes forwarding loop-free by
	// construction.
	FillHeader = "X-CRFleet-Fill"
)

// forwardFill relays a cache-miss solve to the owning peer backend and, on
// success, streams the owner's response through verbatim (reporting true: the
// request is finished). Any failure — transport error, non-2xx — reports
// false and the caller falls back to solving locally, so a dead or draining
// owner degrades to a cold-cache solve, never a failed request. The forward
// runs under the original request's context, so it never outlives the client.
func (s *Server) forwardFill(w http.ResponseWriter, r *http.Request, owner, tenant string, req *SolveRequest) bool {
	body, err := json.Marshal(req)
	if err != nil {
		s.metrics.peerFillErrors.Add(1)
		return false
	}
	preq, err := http.NewRequestWithContext(r.Context(), http.MethodPost, owner+"/v1/solve", bytes.NewReader(body))
	if err != nil {
		s.metrics.peerFillErrors.Add(1)
		return false
	}
	preq.Header.Set("Content-Type", "application/json")
	preq.Header.Set(FillHeader, "1") // and no OwnerHeader: fills never chain
	if tenant != "" {
		preq.Header.Set(TenantHeader, tenant)
	}
	resp, err := http.DefaultClient.Do(preq)
	if err != nil {
		s.metrics.peerFillErrors.Add(1)
		return false
	}
	defer resp.Body.Close()
	if resp.StatusCode/100 != 2 {
		io.Copy(io.Discard, resp.Body)
		s.metrics.peerFillErrors.Add(1)
		return false
	}
	s.metrics.peerFillForwarded.Add(1)
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(resp.StatusCode)
	io.Copy(w, resp.Body)
	return true
}
