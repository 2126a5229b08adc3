"""Confounding-bias quantification and dataset-bias detection.

Two complementary audits of a tabular dataset: a minimum-description-
length comparison of a causal model (presumed causes drive a target)
against a confounded model (a shared latent drives causes and target),
and a dataset-membership classifier whose above-chance accuracy
reveals inter-dataset bias.
"""

from .advi import (FitConfig, FitTrace, FULL_RANK, MEAN_FIELD,
                   VariationalPosterior, estimate_elbo, fit)
from .errors import (BiasAuditError, DegenerateColumnError, DivergenceError,
                     EmptyTableError, EstimationError, FactorizationError,
                     QuadratureError, SchemaError, SplitError)
from .forest import (ConfusionMatrix, DecisionTree, Forest, LearningCurve,
                     LearningCurvePoint, RFConfig, name_that_dataset,
                     train_forest, train_tree)
from .gaussmath import (SpdMatrix, grid_quadrature_2d, log_bingham_constant,
                        mvn_logpdf)
from .models import (CausalModelSpec, CodeLength, ConfoundedModelSpec,
                     JointVector, causal_code_length,
                     causal_evidence_closed_form, causal_log_joint,
                     code_length_X, confounded_code_length,
                     confounded_evidence_k1, confounded_evidence_quadrature,
                     confounded_log_joint, ppca_evidence_fixed_W)
from .scoring import (DatasetAggregate, FailedScore, ScoreRecord,
                      ScoringConfig, aggregate_by_dataset, score_all,
                      score_target)
from .synth import (GenSpec, GroundTruth, MultiDatasetSpec, gen_mixed,
                    gen_multidataset, write_table_csv)
from .tabular import (CauseSpec, CauseTerm, SchemaConfig, Table,
                      build_design, concat_tables, load_csv,
                      standardize_column, stratified_split, summarize)

__version__ = "0.1.0"
