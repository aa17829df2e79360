"""
Fitting one grouped Gaussian model end to end
=============================================

Simulate a dataset with exchangeable within-group residuals, then
recover its parameters: the full path is prior scaling, evidence
integration on a (precision, correlation) grid, and posterior
summaries for every parameter block.
"""

import numpy as np

from grouppc import (
    Family,
    GroupModel,
    HyperPriors,
    PCPrior,
    SimConfig,
    balanced_design,
    log_marginal_likelihood,
    simulate_dataset,
    solve_psi,
)

# thirty groups of twenty observations, a known correlation of 0.3, one
# real covariate next to the intercept
design = balanced_design(n_groups=30, group_size=20)
model = GroupModel(Family.EXCHANGEABLE)
config = SimConfig(design=design, model=model, param=0.3,
                   beta=(1.0, -0.5), sigma2=2.0, seed=20)
dataset = simulate_dataset(config)
print(f"simulated {dataset.y.size} observations in "
      f"{design.n_groups} groups")

# hyperpriors: median correlation 0.5 for the group structure, and a
# tail statement P(sigma > 1/0.31) = 0.01 for the residual scale
prior = PCPrior.from_quantile(model, design, 0.5, 0.5)
hyper = HyperPriors(corr_prior=prior, psi=solve_psi(1.0 / 0.31, 0.01))

fit = log_marginal_likelihood(dataset, model, hyper)

print(f"\nlog marginal likelihood = {fit.log_mlik:.3f}")
print(f"rho    mean {fit.rho['mean']:.3f}  "
      f"95% ({fit.rho['q025']:.3f}, {fit.rho['q975']:.3f})   truth 0.3")
print(f"sigma2 mean {fit.sigma2['mean']:.3f}  "
      f"95% ({fit.sigma2['q025']:.3f}, {fit.sigma2['q975']:.3f})   truth 2.0")
for coef, truth in zip(fit.beta, config.beta):
    print(f"beta[{coef['name']}] mean {coef['mean']:7.3f}  "
          f"95% ({coef['q025']:.3f}, {coef['q975']:.3f})   truth {truth}")

# the diagnostics block reports the grid and how much posterior mass
# leaked into the outermost cells; a warning there means widen the grid
diag = fit.diagnostics
print(f"\ngrid {diag['n_tau']} x {diag['n_corr']}, "
      f"boundary mass {diag['boundary_mass']:.2e}, "
      f"warning: {diag['boundary_warning']}")

# JSON round trip: exactly the five documented keys
print("\nserialized keys:", sorted(fit.to_json_dict()))
