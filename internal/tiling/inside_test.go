package tiling_test

import (
	"sync"
	"testing"

	"tilespace/internal/apps"
	"tilespace/internal/ilin"
	"tilespace/internal/rat"
	"tilespace/internal/tiling"
)

// cornerLoopInside is the vertex enumeration TileFullyInside used to run,
// kept as the oracle for its closed form: every vertex x = P·(j^S + ε),
// ε ∈ {0,1}ⁿ, of the tile cell is checked against every space constraint
// in exact rationals.
func cornerLoopInside(ts *tiling.TiledSpace, jS ilin.Vec) bool {
	n := ts.T.N
	corner := make(ilin.RatVec, n)
	for mask := 0; mask < 1<<n; mask++ {
		for k := 0; k < n; k++ {
			c := rat.FromInt(jS[k])
			if mask&(1<<k) != 0 {
				c = c.AddInt(1)
			}
			corner[k] = c
		}
		for _, con := range ts.Nest.Space.Cons {
			s := rat.Zero
			for j := 0; j < n; j++ {
				pj := con.Coef.Dot(ts.T.P.Col(j).Rat())
				s = s.Add(pj.Mul(corner[j]))
			}
			if s.Cmp(con.Rhs) > 0 {
				return false
			}
		}
	}
	return true
}

// TestTileFullyInsideMatchesCornerLoop: on every shipped app × tiling
// family, the closed-form TileFullyInside agrees with the corner loop on
// every valid tile, and CountTilePoints agrees with the point scan. Four
// goroutines sweep one shared TiledSpace at once, so -race checks that the
// tables Analyze builds are read-only afterwards.
func TestTileFullyInsideMatchesCornerLoop(t *testing.T) {
	type build struct {
		app     func() (*apps.App, error)
		x, y, z int64
	}
	builds := []build{
		{func() (*apps.App, error) { return apps.SOR(12, 16) }, 2, 4, 4},
		{func() (*apps.App, error) { return apps.Jacobi(10, 16) }, 2, 4, 4},
		{func() (*apps.App, error) { return apps.ADI(12, 16) }, 2, 3, 3},
		{func() (*apps.App, error) { return apps.Heat3D(6, 8) }, 2, 2, 2},
	}
	for _, b := range builds {
		app, err := b.app()
		if err != nil {
			t.Fatal(err)
		}
		for _, fam := range append([]apps.TilingFamily{app.Rect}, app.NonRect...) {
			ts, err := tiling.Analyze(app.Nest, fam.H(b.x, b.y, b.z))
			if err != nil {
				t.Fatalf("%s/%s: %v", app.Name, fam.Name, err)
			}
			var tiles []ilin.Vec
			ts.ScanTiles(func(jS ilin.Vec) bool {
				tiles = append(tiles, jS.Clone())
				return true
			})
			const workers = 4
			inside := make([]int, workers)
			var wg sync.WaitGroup
			for w := 0; w < workers; w++ {
				wg.Add(1)
				go func(w int) {
					defer wg.Done()
					for i := w; i < len(tiles); i += workers {
						jS := tiles[i]
						got, want := ts.TileFullyInside(jS), cornerLoopInside(ts, jS)
						if got != want {
							t.Errorf("%s/%s tile %v: closed form %v, corner loop %v", app.Name, fam.Name, jS, got, want)
						}
						if got {
							inside[w]++
						}
						if c, s := ts.CountTilePoints(jS, nil), ts.TilePointCount(jS); c != s {
							t.Errorf("%s/%s tile %v: CountTilePoints %d, scan %d", app.Name, fam.Name, jS, c, s)
						}
					}
				}(w)
			}
			wg.Wait()
			total := 0
			for _, c := range inside {
				total += c
			}
			if total == 0 || total == len(tiles) {
				t.Errorf("%s/%s: %d of %d tiles inside; want both kinds", app.Name, fam.Name, total, len(tiles))
			}
		}
	}
}
