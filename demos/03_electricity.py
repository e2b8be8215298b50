#!/usr/bin/env python3
"""Full diagnosis of the Electricity (NSW) benchmark, if you have it.

Expects the dataset at data/elec.arff (or .csv), or via the
ELECTRICITY_DATA environment variable: 45,312 half-hourly instances with
a nominal UP/DOWN class in the last column.
"""

import os
import sys
from pathlib import Path

import streamaudit as sa

path = os.environ.get("ELECTRICITY_DATA")
if path is None:
    for cand in ("data/elec.arff", "data/elec.csv"):
        if Path(cand).exists():
            path = cand
            break
if path is None:
    sys.exit("Electricity dataset not found; see the module docstring.")

ds = sa.parse_csv(path) if path.endswith(".csv") else sa.parse_arff(path)
report = sa.diagnose(ds, max_lag=96)

print(f"n = {ds.n_instances}, features = {ds.n_features}, "
      f"classes = {ds.class_values}")
print(f"priors           : {report.distribution.frequencies}")
print(f"independence bar : {report.independence_bar:.4f}   (paper-era claim: ~0.51)")
print(f"persistence bar  : {report.persistence_bar:.4f}   (~0.853)")
print(f"daily ACF peak   : r(48) = {report.acf[48]:+.4f}")

print("\nstreaming naive Bayes, prequential:")
nb = sa.prequential_eval(sa.NaiveBayesLearner(ds), ds)
print(f"  accuracy {nb.accuracy:.4f}  (~0.742)")

print("\ngrading published figures against the bars:")
for acc in (0.886, 0.849, 0.827, 0.742, 0.575):
    v = sa.audit_accuracy(acc, ds)
    print(f"  {acc:.3f} -> {v.verdict.value:17s} margin {v.margin:+.4f}")
