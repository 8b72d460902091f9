package lp

import (
	"strings"
	"testing"
)

// TestCertifyRejects shows the certificate has teeth: on the optimum of a
// small LP with LE, GE and EQ rows it passes, and each way of breaking one of
// its conditions is caught by the check it names.
func TestCertifyRejects(t *testing.T) {
	build := func() (*Problem, *Solution) {
		// max 3x + 5y + z, as min -3x - 5y - z,  s.t.  x <= 4, 3x + 2y <= 18,
		// x + y + z >= 1, y - z = 5 and the bound row y <= 8: optimum x=2,
		// y=6, z=1, objective -37.
		p := NewProblem()
		x, y, z := p.AddVariable(-3), p.AddVariable(-5), p.AddVariable(-1)
		p.AddConstraint(LE, 4, Term{x, 1})
		p.AddConstraint(LE, 18, Term{x, 3}, Term{y, 2})
		p.AddConstraint(GE, 1, Term{x, 1}, Term{y, 1}, Term{z, 1})
		p.AddConstraint(EQ, 5, Term{y, 1}, Term{z, -1})
		p.AddConstraint(LE, 8, Term{y, 1})
		sol, err := p.Solve()
		if err != nil {
			t.Fatal(err)
		}
		return p, sol
	}
	p, sol := build()
	if err := Certify(p, sol); err != nil {
		t.Fatalf("the optimum fails: %v (objective %v, values %v, duals %v)", err, sol.Objective, sol.values, sol.duals)
	}
	for _, tc := range []struct {
		name, want string
		breakIt    func(sol *Solution)
	}{
		{"a value past its row", "row r1", func(s *Solution) { s.values[0] += 1e-3 }},
		{"a negative value", "negative", func(s *Solution) { s.values[1] = -1e-3 }},
		{"a dual of the wrong sign", "wrong sign", func(s *Solution) { s.duals[1] = -s.duals[1] }},
		{"a dual on a slack row", "slack", func(s *Solution) { s.duals[2] = 1e-3 }},
		{"duals that price a column out", "reduced cost", func(s *Solution) { s.duals[3] = 0 }},
		{"a feasible vertex that is not optimal", "slack", func(s *Solution) { s.values[0], s.Objective = 0, -31 }},
		{"an objective the values do not give", "objective", func(s *Solution) { s.Objective += 1e-6 }},
		{"a solve that did not end optimal", "not optimal", func(s *Solution) { s.Status = IterationLimit }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			p, sol := build()
			tc.breakIt(sol)
			if err := Certify(p, sol); err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Errorf("Certify = %v, want an error naming %q", err, tc.want)
			}
		})
	}
}
