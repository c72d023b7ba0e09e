"""One warm-up call per route, on inputs outside every workload's pool.

Shared by the workload processes and the fresh-interpreter set-up timing.
"""


def warm_up(lg, routes):
    if "bessel" in routes:
        lg.green_bessel(lg.GreenParams(1, 0.7, 1.0), [1])
    if "fourier" in routes:
        lg.green_fourier_oracle(lg.GreenParams(1, 0.7, 1.0), [1])
    if "estimate" in routes:
        lg.oz_estimate(lg.GreenParams(2, 0.7, 1.0), [1, 0], 2)
    if "mc" in routes:
        lg.run_killed_walks(lg.WalkConfig(d=1, a=0.7, n_walks=1000, seed=1, max_box=1))
