"""What each per-layer metric of the traced run predicts.

Every row names layer metrics, the end-to-end metric they should move, the
workload where the layer carries the load, and the workload where the
prediction is no change.  Names, units and directions live in
``BENCHMARK.json``; ``selftest.py`` checks that the two agree.

The ``_optim`` module's metrics are named ``optim.*`` because a metric name
must start with a letter or a digit.
"""

from __future__ import annotations

LAYER_ROWS = [
    {
        "metrics": ["optim.minimize_product_states.calls", "optim.minimize_product_states.s",
                    "optim.minimize_product_states.self_s", "optim.starts",
                    "optim.objective.calls", "optim.objective.rows", "optim.objective.s",
                    "optim.gradient.calls", "optim.gradient.s"],
        "moves": "wall_s, cpu_s",
        "carries": "region (finite differences), fidelity (exact gradients)",
        "no_change": "verify (little: the optimizer is about a third of its time there)",
    },
    {
        "metrics": ["capacity.region_sample.n1.s", "capacity.region_sample.n2.s",
                    "linalg.permute_legs_vector.calls", "linalg.permute_legs_vector.s",
                    "linalg.eigh.calls", "linalg.eigh.s",
                    "linalg.partial_trace.calls", "linalg.partial_trace.s",
                    "linalg.kron_all.calls", "linalg.kron_all.s"],
        "moves": "wall_s",
        "carries": "region",
        "no_change": "fidelity",
    },
    {
        "metrics": ["fidelities.min_subspace_fidelity.s",
                    "fidelities.QuadraticOverlap.batch_values.s",
                    "fidelities.QuadraticOverlap.packed_gradient.s",
                    "fidelities.QuadraticOverlap.polish.s"],
        "moves": "wall_s",
        "carries": "fidelity",
        "no_change": "region",
    },
    {
        "metrics": ["fidelities.average_fidelity_mc.s",
                    "fidelities.average_fidelity_mc.samples_per_s"],
        "moves": "wall_s, peak_rss_mb",
        "carries": "fidelity",
        "no_change": "region",
    },
    {
        "metrics": ["fidelities.average_fidelity_exact.s", "fidelities.channel_fidelity_report.s",
                    "fidelities.channel_fidelity.s", "fidelities.group_fidelity.s",
                    "fidelities.pure_state_fidelity.calls", "fidelities.pure_state_fidelity.s"],
        "moves": "wall_s",
        "carries": "verify, fidelity",
        "no_change": "region",
    },
    {
        "metrics": ["channels.apply_with_reference.calls", "channels.apply_with_reference.s",
                    "linalg.DensityOperator.calls", "linalg.DensityOperator.s",
                    "linalg.uhlmann_fidelity.s",
                    "capacity.coherent_information.calls", "capacity.coherent_information.s",
                    "capacity.check_dpi.s", "capacity.continuity_gap.s",
                    "channels.random_channel.calls"],
        "moves": "wall_s",
        "carries": "verify",
        "no_change": "fidelity (these functions do not run there)",
    },
    {
        "metrics": ["protocols.twirl_channel.s", "protocols.twirl_channel.kraus",
                    "protocols.phase_average_bound.s"],
        "moves": "wall_s, peak_rss_mb",
        "carries": "verify",
        "no_change": "region",
    },
    {
        "metrics": ["channels.read_channel.s", "channels.read_channel.bytes",
                    "channels.tensor_power.s", "channels.tensor_power.kraus"],
        "moves": "setup_s",
        "carries": "every workload",
        "no_change": "none named",
    },
    {
        "metrics": ["cli.main.s", "cli.unattributed_s", "trace.overhead_s"],
        "moves": "wall_s (cli.main.s is the traced wall_s less interpreter start)",
        "carries": "every workload",
        "no_change": "none named (trace.overhead_s should stay small against wall_s)",
    },
    {
        "metrics": ["fail_frac", "objective", "min_fidelity_ub"],
        "moves": "nothing: outcomes of the traced run, 0 where a workload prints no such value",
        "carries": "region (objective), fidelity (min_fidelity_ub), every workload (fail_frac)",
        "no_change": "every workload: a speedup must leave them as they are",
    },
]

PER_LAYER = [name for row in LAYER_ROWS for name in row["metrics"]]
