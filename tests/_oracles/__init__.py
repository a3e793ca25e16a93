"""Test oracles for the stochastic fast paths.

Plain per-sample loops that replay the library's seeded streams one
scalar at a time.  They share no code with the kernels they check:

* :mod:`tests._oracles.montecarlo` walks the structure function once
  per sample on ``random.Random(seed).random()`` draws — the oracle of
  :meth:`repro.compile.CompiledSampler.counts`;
* :mod:`tests._oracles.uq` fills each design row with the scalar
  ``ppf`` and quantifies it through the compiled scalar path — the
  oracle of :func:`repro.uq.propagate` and the sharded
  ``UncertaintyJob``.

Nothing here is exported by the library.
"""
