package serve

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math"

	"mpq/internal/catalog"
	"mpq/internal/cloud"
	"mpq/internal/core"
	"mpq/internal/geometry"
	"mpq/internal/region"
	"mpq/internal/store"
	"mpq/internal/workload"
)

// Template describes a query template to prepare: either an explicit
// schema or a workload-generator configuration, plus the cost-model
// configuration.
type Template struct {
	// Schema, when non-nil, is the query to optimize.
	Schema *catalog.Schema
	// Workload generates the schema when Schema is nil.
	Workload workload.Config
	// Cloud configures the cost model; nil selects the defaults.
	Cloud *cloud.Config
	// Epsilon, when non-nil, overrides the server's default
	// approximation factor (Options.Optimizer.Epsilon) for this
	// template: 0 requests the exact Pareto set, ε > 0 an ε-approximate
	// frontier. The factor is part of the plan-set key, so exact and
	// approximate tiers of the same template coexist in one cache, one
	// shared store, and one fleet without ever answering for each
	// other.
	Epsilon *float64
}

func (t Template) resolve() (*catalog.Schema, cloud.Config, error) {
	cfg := cloud.DefaultConfig()
	if t.Cloud != nil {
		cfg = *t.Cloud
	}
	if t.Schema != nil {
		return t.Schema, cfg, nil
	}
	schema, err := workload.Generate(t.Workload)
	if err != nil {
		return nil, cloud.Config{}, err
	}
	return schema, cfg, nil
}

// keyMemoCap bounds the key memo; a full memo is cleared, not evicted
// entry by entry.
const keyMemoCap = 4096

// keyMemoKey identifies a generated template: the generator
// configuration and the resolved ε's bits (planSetKey encodes -0 and 0
// differently, so the memo must too).
type keyMemoKey struct {
	workload workload.Config
	epsBits  uint64
}

// Key computes the plan-set cache key of a template under this server's
// optimizer configuration without preparing it: a hash of the schema,
// the cost-model configuration and the optimizer configuration (plus
// the store format version, since the cached sets round-trip through
// it).
func (s *Server) Key(tpl Template) (string, error) {
	key, _, _, _, err := s.templateKey(tpl)
	return key, err
}

// templateKey returns tpl's plan-set key and resolved ε, plus the
// resolved schema and cost-model configuration that hashed to the key.
// A generated template (no explicit Schema or Cloud) seen before takes
// its key from the memo instead, skipping workload generation and the
// key hash; schema is then nil, and a caller that needs it resolves tpl
// itself.
func (s *Server) templateKey(tpl Template) (key string, epsilon float64, schema *catalog.Schema, cloudCfg cloud.Config, err error) {
	epsilon, epsErr := s.resolveEpsilon(tpl)
	memo := tpl.Schema == nil && tpl.Cloud == nil && epsErr == nil
	mk := keyMemoKey{workload: tpl.Workload, epsBits: math.Float64bits(epsilon)}
	if memo {
		s.keyMu.Lock()
		k, ok := s.keys[mk]
		s.keyMu.Unlock()
		if ok {
			return k, epsilon, nil, cloud.Config{}, nil
		}
	}
	if schema, cloudCfg, err = tpl.resolve(); err != nil {
		return "", 0, nil, cloud.Config{}, err
	}
	if epsErr != nil {
		return "", 0, nil, cloud.Config{}, epsErr
	}
	if key, err = planSetKey(schema, cloudCfg, s.opts.Optimizer, epsilon); err != nil {
		return "", 0, nil, cloud.Config{}, err
	}
	if memo {
		s.keyMu.Lock()
		if len(s.keys) >= keyMemoCap {
			clear(s.keys)
		}
		s.keys[mk] = key
		s.keyMu.Unlock()
	}
	return key, epsilon, schema, cloudCfg, nil
}

// resolveEpsilon returns the approximation factor a template prepares
// under: its own override when set, the server default otherwise.
func (s *Server) resolveEpsilon(tpl Template) (float64, error) {
	epsilon := s.opts.Optimizer.Epsilon
	if tpl.Epsilon != nil {
		epsilon = *tpl.Epsilon
	}
	if epsilon < 0 || math.IsNaN(epsilon) {
		return 0, fmt.Errorf("serve: invalid epsilon %v", epsilon)
	}
	return epsilon, nil
}

// planSetKey hashes everything that determines a prepared plan set:
// the schema content, the cost-model configuration, the optimizer
// configuration that changes results (region refinements, Cartesian
// postponement, and the approximation factor — the worker count does
// not, by the determinism guarantee of the parallel wavefront), the
// pool's geometry tolerances (which steer pruning decisions; always the
// defaults, and still hashed so that documents stored under earlier
// keys keep them), the optimizer revision (core.Revision, so a
// directory, shared store or peer filled by a build that prunes
// differently never answers for this one), and the store format
// version the cached sets round-trip through. The
// epsilon field is what lets precision tiers share one fleet: the same
// template at a different ε is simply a different key.
func planSetKey(schema *catalog.Schema, cloudCfg cloud.Config, opts core.Options, epsilon float64) (string, error) {
	return planSetKeyAt(core.Revision, schema, cloudCfg, opts, epsilon)
}

// planSetKeyAt is planSetKey for the given optimizer revision.
func planSetKeyAt(revision int, schema *catalog.Schema, cloudCfg cloud.Config, opts core.Options, epsilon float64) (string, error) {
	keyDoc := struct {
		Format            int
		Optimizer         int
		Schema            *catalog.Schema
		Cloud             cloud.Config
		Region            region.Options
		PostponeCartesian bool
		Epsilon           float64
		Solver            geometry.Config
	}{
		Format:            store.FormatVersion,
		Optimizer:         revision,
		Schema:            schema,
		Cloud:             cloudCfg,
		Region:            opts.Region,
		PostponeCartesian: opts.PostponeCartesian,
		Epsilon:           epsilon,
		Solver:            geometry.DefaultConfig(),
	}
	b, err := json.Marshal(keyDoc)
	if err != nil {
		return "", fmt.Errorf("serve: hashing template: %w", err)
	}
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:16]), nil
}

// validKey reports whether key has the exact shape planSetKey
// produces: 32 lowercase hex digits. Every file- or URL-backed lookup
// refuses other shapes, so a request-supplied key (Pick reloads, the
// /planset peer endpoint) can never traverse paths under Options.Dir
// or inject segments into a peer URL.
func validKey(key string) bool {
	if len(key) != 32 {
		return false
	}
	for i := 0; i < len(key); i++ {
		c := key[i]
		if !('0' <= c && c <= '9' || 'a' <= c && c <= 'f') {
			return false
		}
	}
	return true
}
