package service

import (
	"errors"
	"fmt"
	"math"
	"net/http"
	"strconv"
	"strings"

	"crsharing/internal/engine"
)

// TenantHeader names the request header carrying the caller's tenant
// directly. Requests without it (and without an API key) run as
// engine.DefaultTenant.
const TenantHeader = "X-Tenant"

// APIKeyHeader is the alternative to a Bearer token for key-mapped tenants.
const APIKeyHeader = "X-API-Key"

// tenantFor resolves a request's tenant identity, in order: the X-Tenant
// header; an API key (X-API-Key header or "Authorization: Bearer <key>")
// mapped through Config.APIKeys; the default tenant for anonymous requests.
// On failure it returns the HTTP status to answer with: 400 for a malformed
// tenant name (see engine.CheckTenantName), 401 for an unknown key on a
// server that has keys configured.
func (s *Server) tenantFor(r *http.Request) (string, int, error) {
	if name := r.Header.Get(TenantHeader); name != "" {
		if err := engine.CheckTenantName(name); err != nil {
			return "", http.StatusBadRequest, err
		}
		return name, 0, nil
	}
	key := r.Header.Get(APIKeyHeader)
	if key == "" {
		if auth := r.Header.Get("Authorization"); strings.HasPrefix(auth, "Bearer ") {
			key = strings.TrimPrefix(auth, "Bearer ")
		}
	}
	if key != "" && len(s.cfg.APIKeys) > 0 {
		tenant, ok := s.cfg.APIKeys[key]
		if !ok {
			return "", http.StatusUnauthorized, errors.New("unknown API key")
		}
		return tenant, 0, nil
	}
	return engine.DefaultTenant, 0, nil
}

// ParseAPIKeys parses a comma-separated "key=tenant" mapping (the crserved
// -api-keys flag). Tenant names face the same restrictions as the X-Tenant
// header; duplicate keys are rejected rather than silently last-one-wins.
func ParseAPIKeys(spec string) (map[string]string, error) {
	out := make(map[string]string)
	for _, entry := range strings.Split(spec, ",") {
		entry = strings.TrimSpace(entry)
		if entry == "" {
			continue
		}
		key, tenant, ok := strings.Cut(entry, "=")
		key, tenant = strings.TrimSpace(key), strings.TrimSpace(tenant)
		if !ok || key == "" {
			return nil, fmt.Errorf("service: api key spec %q: want key=tenant", entry)
		}
		if err := engine.CheckTenantName(tenant); err != nil {
			return nil, fmt.Errorf("service: api key spec %q: %w", entry, err)
		}
		if _, dup := out[key]; dup {
			return nil, fmt.Errorf("service: api key spec: duplicate key %q", key)
		}
		out[key] = tenant
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("service: api key spec %q: no keys", spec)
	}
	return out, nil
}

// failShed answers a quota rejection: HTTP 429 with a Retry-After header in
// whole seconds (rounded up so a sub-second hint never renders as 0).
func (s *Server) failShed(w http.ResponseWriter, shed *engine.ErrShed) {
	secs := int(math.Ceil(shed.RetryAfter.Seconds()))
	if secs < 1 {
		secs = 1
	}
	w.Header().Set("Retry-After", strconv.Itoa(secs))
	s.metrics.shedTotal.Add(1)
	s.fail(w, http.StatusTooManyRequests, shed)
}
