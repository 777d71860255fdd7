package opt

import "math"

// ConstraintKind names the fairness condition a Constraint states.
type ConstraintKind uint8

const (
	// SharingIncentive is SI(i): g = log u_i(x_i) − log u_i(C/N).
	SharingIncentive ConstraintKind = iota
	// EnvyFree is EF(i,j): g = log u_i(x_i) − log u_i(x_j).
	EnvyFree
)

// Constraint is one concave inequality g(x) ≥ 0 over allocations: agent
// I's sharing incentive, or agent I's freedom from envy of agent J. Both
// are linear in log x, so the solvers evaluate every constraint of an
// iterate from one table of log x_ir, and write its gradient into rows I
// and J only. SI and EF on log-transformed Cobb-Douglas utilities are
// concave, so penalized projected gradient ascent remains a convex method.
type Constraint struct {
	Kind ConstraintKind
	// I is the agent whose utility the constraint protects; J is the agent
	// it must not envy (EnvyFree only).
	I, J int
	// Alpha is agent I's elasticities.
	Alpha []float64
	// Offset is log u_I(C/N), the equal-split utility (SharingIncentive
	// only).
	Offset float64
}

// value returns g at the allocation whose logs are logx.
func (c Constraint) value(logx Alloc) float64 {
	own := logUtilFrom(c.Alpha, logx[c.I])
	if c.Kind == SharingIncentive {
		return own - c.Offset
	}
	val := own - logUtilFrom(c.Alpha, logx[c.J])
	// A -Inf − -Inf comparison (both bundles worthless to agent I) is
	// vacuously non-envious.
	if math.IsNaN(val) {
		val = 0
	}
	return val
}

// addGrad adds rho·∂g/∂x_ir·scale_r to grad, touching rows I and (for EF)
// J at the resources agent I values.
func (c Constraint) addGrad(grad, x Alloc, rho float64, scale []float64) {
	i, j := c.I, c.J
	for r, a := range c.Alpha {
		if a == 0 {
			continue
		}
		grad[i][r] += rho * (a / safePos(x[i][r])) * scale[r]
		if c.Kind == EnvyFree {
			grad[j][r] += rho * (-a / safePos(x[j][r])) * scale[r]
		}
	}
}

// safePos guards a denominator that should be strictly positive but may be
// zero when a caller evaluates a constraint at an extreme allocation.
func safePos(x float64) float64 {
	if x < 1e-300 {
		return 1e-300
	}
	return x
}

// SIConstraints builds one sharing-incentive constraint per agent
// (Equation 3 in log space):
//
//	g_i(x) = log u_i(x_i) − log u_i(C/N) ≥ 0
func SIConstraints(agents []Agent, cap []float64) []Constraint {
	n := len(agents)
	logEqual := Alloc{make([]float64, len(cap))}
	for r, c := range cap {
		logEqual[0][r] = c / float64(n)
	}
	fillLog(logEqual, logEqual) // in place: C/N becomes log(C/N)
	cons := make([]Constraint, n)
	for i, ag := range agents {
		cons[i] = Constraint{Kind: SharingIncentive, I: i, Alpha: ag.Alpha, Offset: logUtilFrom(ag.Alpha, logEqual[0])}
	}
	return cons
}

// EFConstraints builds one envy-freeness constraint per ordered pair of
// distinct agents (§3.2 in log space):
//
//	g_{ij}(x) = log u_i(x_i) − log u_i(x_j) ≥ 0
//
// i.e. agent i evaluates agent j's bundle with i's own utility and must not
// prefer it.
func EFConstraints(agents []Agent) []Constraint {
	n := len(agents)
	cons := make([]Constraint, 0, n*(n-1))
	for i, ag := range agents {
		for j := 0; j < n; j++ {
			if i != j {
				cons = append(cons, Constraint{Kind: EnvyFree, I: i, J: j, Alpha: ag.Alpha})
			}
		}
	}
	return cons
}
