"""torsionlab: desk-scale torsion calculus and gluing verification.

Subpackages by theme:

* :mod:`torsionlab.algebra` -- coefficient algebras for forms and matrix
  calculus over them,
* :mod:`torsionlab.complexes` -- flat metric complexes, characteristic
  forms, torsion forms, metric-comparison classes,
* :mod:`torsionlab.hodge` -- finite-dimensional Hodge theory and the
  singular-value route to degree-zero torsion,
* :mod:`torsionlab.morse` -- critical-point (Thom-Smale style) complexes,
  doubling, parity splitting and comparison maps,
* :mod:`torsionlab.spectral` -- double complexes, spectral pages, and
  torsion decompositions over pages,
* :mod:`torsionlab.analytic` -- zeta-regularized determinants and
  degree-zero analytic torsion for 1-D model geometries,
* :mod:`torsionlab.glue` -- end-to-end verification of the cut-and-paste
  formula for torsion with its log-2 defect,
* :mod:`torsionlab.cli` -- batch entry points with machine-readable
  reports.
"""

__version__ = "0.1.0"
