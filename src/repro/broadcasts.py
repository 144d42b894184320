"""The panel-broadcast algorithm names (bcast / ibcast: library trees;
ring1 / ring1m / ring2m: pipelined rings) — the one list the config,
the virtual-MPI and route tables, the CLI and ``verify-comm`` share.
A leaf, so pricing a config loads neither :mod:`repro.comm` nor the
simulator."""

BCAST_NAMES = ("bcast", "ibcast", "ring1", "ring1m", "ring2m")
