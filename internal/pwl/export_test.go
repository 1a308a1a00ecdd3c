package pwl

import "mpq/internal/geometry"

// DomPieces is Dom without the whole-space shortcut: the per-piece
// construction alone, the oracle the fast path is tested against.
func DomPieces(ctx *geometry.Context, c1, c2 *Multi) []*geometry.Polytope {
	return domPieces(ctx, newDomPairs(ctx, c1, c2, 1, 1))
}
