package rat

import (
	"math"
	"testing"
	"testing/quick"
)

func TestNewNormalizes(t *testing.T) {
	cases := []struct {
		num, den int64
		want     Rat
	}{
		{1, 2, Rat{1, 2}},
		{2, 4, Rat{1, 2}},
		{-2, 4, Rat{-1, 2}},
		{2, -4, Rat{-1, 2}},
		{-2, -4, Rat{1, 2}},
		{0, 5, Rat{0, 1}},
		{0, -5, Rat{0, 1}},
		{7, 1, Rat{7, 1}},
		{-21, 14, Rat{-3, 2}},
	}
	for _, c := range cases {
		if got := New(c.num, c.den); got != c.want {
			t.Errorf("New(%d,%d) = %v, want %v", c.num, c.den, got, c.want)
		}
	}
}

func TestNewZeroDenPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("New(1,0) did not panic")
		}
	}()
	New(1, 0)
}

func TestArithmetic(t *testing.T) {
	half := New(1, 2)
	third := New(1, 3)
	if got := half.Add(third); !got.Equal(New(5, 6)) {
		t.Errorf("1/2+1/3 = %v", got)
	}
	if got := half.Sub(third); !got.Equal(New(1, 6)) {
		t.Errorf("1/2-1/3 = %v", got)
	}
	if got := half.Mul(third); !got.Equal(New(1, 6)) {
		t.Errorf("1/2*1/3 = %v", got)
	}
	if got := half.Div(third); !got.Equal(New(3, 2)) {
		t.Errorf("(1/2)/(1/3) = %v", got)
	}
	if got := half.Neg(); !got.Equal(New(-1, 2)) {
		t.Errorf("-(1/2) = %v", got)
	}
	if got := third.Inv(); !got.Equal(FromInt(3)) {
		t.Errorf("(1/3)^-1 = %v", got)
	}
	if got := half.MulInt(4); !got.Equal(FromInt(2)) {
		t.Errorf("1/2*4 = %v", got)
	}
	if got := half.AddInt(1); !got.Equal(New(3, 2)) {
		t.Errorf("1/2+1 = %v", got)
	}
}

func TestDivByZeroPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Div by zero did not panic")
		}
	}()
	One.Div(Zero)
}

func TestInvZeroPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Inv of zero did not panic")
		}
	}()
	Zero.Inv()
}

func TestCmpSign(t *testing.T) {
	if New(1, 3).Cmp(New(1, 2)) != -1 {
		t.Error("1/3 < 1/2 expected")
	}
	if New(1, 2).Cmp(New(1, 2)) != 0 {
		t.Error("1/2 == 1/2 expected")
	}
	if New(-1, 2).Cmp(New(-1, 3)) != -1 {
		t.Error("-1/2 < -1/3 expected")
	}
	if Zero.Sign() != 0 || New(-3, 7).Sign() != -1 || New(3, 7).Sign() != 1 {
		t.Error("Sign mismatch")
	}
}

func TestFloorCeil(t *testing.T) {
	cases := []struct {
		r           Rat
		floor, ceil int64
	}{
		{New(7, 2), 3, 4},
		{New(-7, 2), -4, -3},
		{New(6, 2), 3, 3},
		{New(-6, 2), -3, -3},
		{Zero, 0, 0},
		{New(1, 100), 0, 1},
		{New(-1, 100), -1, 0},
	}
	for _, c := range cases {
		if got := c.r.Floor(); got != c.floor {
			t.Errorf("Floor(%v) = %d, want %d", c.r, got, c.floor)
		}
		if got := c.r.Ceil(); got != c.ceil {
			t.Errorf("Ceil(%v) = %d, want %d", c.r, got, c.ceil)
		}
	}
}

func TestParse(t *testing.T) {
	cases := []struct {
		in   string
		want Rat
		ok   bool
	}{
		{"3", FromInt(3), true},
		{"-3", FromInt(-3), true},
		{"3/4", New(3, 4), true},
		{"-3/4", New(-3, 4), true},
		{" 6 / 8 ", New(3, 4), true},
		{"1/0", Zero, false},
		{"x", Zero, false},
		{"1/x", Zero, false},
		{"x/1", Zero, false},
	}
	for _, c := range cases {
		got, err := Parse(c.in)
		if c.ok && (err != nil || !got.Equal(c.want)) {
			t.Errorf("Parse(%q) = %v, %v; want %v", c.in, got, err, c.want)
		}
		if !c.ok && err == nil {
			t.Errorf("Parse(%q) succeeded, want error", c.in)
		}
	}
}

func TestString(t *testing.T) {
	if New(3, 4).String() != "3/4" {
		t.Error("3/4 string")
	}
	if FromInt(-2).String() != "-2" {
		t.Error("-2 string")
	}
	if Zero.String() != "0" {
		t.Error("0 string")
	}
}

func TestMinMaxAbs(t *testing.T) {
	a, b := New(1, 3), New(1, 2)
	if !Min(a, b).Equal(a) || !Max(a, b).Equal(b) {
		t.Error("Min/Max mismatch")
	}
	if !New(-5, 3).Abs().Equal(New(5, 3)) {
		t.Error("Abs mismatch")
	}
}

func TestGcdLcm(t *testing.T) {
	if Gcd64(12, 18) != 6 || Gcd64(-12, 18) != 6 || Gcd64(0, 5) != 5 || Gcd64(0, 0) != 0 {
		t.Error("Gcd64 mismatch")
	}
	if Lcm64(4, 6) != 12 || Lcm64(0, 6) != 0 || Lcm64(-4, 6) != 12 {
		t.Error("Lcm64 mismatch")
	}
}

func TestExtGcd(t *testing.T) {
	cases := [][2]int64{{12, 18}, {-12, 18}, {17, 5}, {0, 7}, {7, 0}, {1, 1}, {-3, -9}}
	for _, c := range cases {
		g, x, y := ExtGcd(c[0], c[1])
		if g != Gcd64(c[0], c[1]) {
			t.Errorf("ExtGcd(%d,%d) g = %d", c[0], c[1], g)
		}
		if c[0]*x+c[1]*y != g {
			t.Errorf("ExtGcd(%d,%d): %d*%d + %d*%d != %d", c[0], c[1], c[0], x, c[1], y, g)
		}
	}
}

func TestFloorCeilDivMod(t *testing.T) {
	cases := []struct {
		a, b, fd, cd int64
	}{
		{7, 2, 3, 4},
		{-7, 2, -4, -3},
		{7, -2, -4, -3},
		{-7, -2, 3, 4},
		{6, 3, 2, 2},
		{0, 5, 0, 0},
	}
	for _, c := range cases {
		if got := FloorDiv(c.a, c.b); got != c.fd {
			t.Errorf("FloorDiv(%d,%d) = %d, want %d", c.a, c.b, got, c.fd)
		}
		if got := CeilDiv(c.a, c.b); got != c.cd {
			t.Errorf("CeilDiv(%d,%d) = %d, want %d", c.a, c.b, got, c.cd)
		}
	}
	if Mod(-7, 3) != 2 || Mod(7, 3) != 1 || Mod(-6, 3) != 0 || Mod(-7, -3) != 2 {
		t.Error("Mod mismatch")
	}
}

// clampRat builds a small rational from arbitrary int16s so quick-check
// inputs stay far from overflow.
func clampRat(n int16, d int16) Rat {
	den := int64(d)
	if den == 0 {
		den = 1
	}
	return New(int64(n), den)
}

func TestQuickFieldAxioms(t *testing.T) {
	comm := func(an, ad, bn, bd int16) bool {
		a, b := clampRat(an, ad), clampRat(bn, bd)
		return a.Add(b).Equal(b.Add(a)) && a.Mul(b).Equal(b.Mul(a))
	}
	if err := quick.Check(comm, nil); err != nil {
		t.Error(err)
	}
	assoc := func(an, ad, bn, bd, cn, cd int16) bool {
		a, b, c := clampRat(an, ad), clampRat(bn, bd), clampRat(cn, cd)
		return a.Add(b).Add(c).Equal(a.Add(b.Add(c))) &&
			a.Mul(b).Mul(c).Equal(a.Mul(b.Mul(c)))
	}
	if err := quick.Check(assoc, nil); err != nil {
		t.Error(err)
	}
	distr := func(an, ad, bn, bd, cn, cd int16) bool {
		a, b, c := clampRat(an, ad), clampRat(bn, bd), clampRat(cn, cd)
		return a.Mul(b.Add(c)).Equal(a.Mul(b).Add(a.Mul(c)))
	}
	if err := quick.Check(distr, nil); err != nil {
		t.Error(err)
	}
	inverse := func(an, ad, bn, bd int16) bool {
		a, b := clampRat(an, ad), clampRat(bn, bd)
		if !a.Sub(a).IsZero() {
			return false
		}
		if b.IsZero() {
			return true
		}
		return a.Div(b).Mul(b).Equal(a)
	}
	if err := quick.Check(inverse, nil); err != nil {
		t.Error(err)
	}
}

func TestQuickFloorCeilConsistency(t *testing.T) {
	f := func(n int32, d int32) bool {
		den := int64(d)
		if den == 0 {
			den = 1
		}
		r := New(int64(n), den)
		fl, ce := r.Floor(), r.Ceil()
		if r.IsInt() {
			return fl == ce && fl == r.Int()
		}
		return ce == fl+1 &&
			FromInt(fl).Cmp(r) < 0 && r.Cmp(FromInt(ce)) < 0
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestQuickFloorDivMatchesRat(t *testing.T) {
	f := func(a int32, b int32) bool {
		bb := int64(b)
		if bb == 0 {
			bb = 1
		}
		r := New(int64(a), bb)
		return FloorDiv(int64(a), bb) == r.Floor() && CeilDiv(int64(a), bb) == r.Ceil()
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestQuickExtGcd(t *testing.T) {
	f := func(a int32, b int32) bool {
		g, x, y := ExtGcd(int64(a), int64(b))
		return int64(a)*x+int64(b)*y == g && g == Gcd64(int64(a), int64(b))
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestOverflowPanics(t *testing.T) {
	big := Rat{math.MaxInt64, 1}
	for name, f := range map[string]func(){
		"add": func() { big.Add(big) },
		"mul": func() { big.Mul(big) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s overflow did not panic", name)
				}
			}()
			f()
		}()
	}
}

func TestFloat(t *testing.T) {
	if New(1, 2).Float() != 0.5 {
		t.Error("Float(1/2) != 0.5")
	}
}

func TestMustParse(t *testing.T) {
	if !MustParse("3/4").Equal(New(3, 4)) {
		t.Error("MustParse(3/4)")
	}
	defer func() {
		if recover() == nil {
			t.Error("MustParse on bad input should panic")
		}
	}()
	MustParse("x")
}

func TestIntAccessor(t *testing.T) {
	if FromInt(7).Int() != 7 {
		t.Error("Int(7)")
	}
	defer func() {
		if recover() == nil {
			t.Error("Int on non-integer should panic")
		}
	}()
	New(1, 2).Int()
}

func TestCmpEqualAndGreater(t *testing.T) {
	if New(2, 4).Cmp(New(1, 2)) != 0 {
		t.Error("equal compare")
	}
	if New(3, 4).Cmp(New(1, 2)) != 1 {
		t.Error("greater compare")
	}
}

func TestAbsMinMaxBranches(t *testing.T) {
	if !New(5, 3).Abs().Equal(New(5, 3)) {
		t.Error("Abs of positive")
	}
	a, b := New(2, 3), New(1, 3)
	if !Min(a, b).Equal(b) || !Max(b, a).Equal(a) {
		t.Error("Min/Max other branch")
	}
}

func TestDivisionByZeroPanics(t *testing.T) {
	for name, f := range map[string]func(){
		"FloorDiv": func() { FloorDiv(1, 0) },
		"CeilDiv":  func() { CeilDiv(1, 0) },
		"Mod":      func() { Mod(1, 0) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s by zero should panic", name)
				}
			}()
			f()
		}()
	}
}

func TestNegOverflowPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("negating MinInt64 should panic")
		}
	}()
	Rat{math.MinInt64, 1}.Neg()
}

// TestCheckedInt64Ops: AddInt64/MulInt64 report exactly the results that
// do not fit in int64, on both sides of MulInt64's int32 fast path.
func TestCheckedInt64Ops(t *testing.T) {
	adds := []struct {
		a, b int64
		ok   bool
	}{
		{1, 2, true},
		{math.MaxInt64, 0, true},
		{math.MaxInt64, 1, false},
		{math.MinInt64, -1, false},
		{math.MinInt64, math.MaxInt64, true},
		{-1 << 62, -1 << 62, true},
		{1 << 62, 1 << 62, false},
	}
	for _, c := range adds {
		if s, ok := AddInt64(c.a, c.b); ok != c.ok || (ok && s != c.a+c.b) {
			t.Errorf("AddInt64(%d, %d) = %d, %v", c.a, c.b, s, ok)
		}
	}
	muls := []struct {
		a, b int64
		ok   bool
	}{
		{0, math.MinInt64, true},
		{math.MaxInt32, math.MinInt32, true},
		{math.MinInt32, math.MinInt32, true},
		{1 << 32, 1 << 30, true},
		{1 << 32, 1 << 31, false},
		{-1 << 32, 1 << 31, true},
		{math.MinInt64, -1, false},
		{-1, math.MinInt64, false},
		{math.MinInt64, 1, true},
		{3, 1 << 62, false},
	}
	for _, c := range muls {
		if p, ok := MulInt64(c.a, c.b); ok != c.ok || (ok && p != c.a*c.b) {
			t.Errorf("MulInt64(%d, %d) = %d, %v", c.a, c.b, p, ok)
		}
	}
}
