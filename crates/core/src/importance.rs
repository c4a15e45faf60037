//! The importance funnel (§4.3, Algorithm 2): partitions advance to more
//! important groups only by passing every preceding model, limiting the
//! damage any one inaccurate model can do.

use ps3_learn::Gbdt;
use ps3_stats::FeatureMatrix;

/// Where the funnel's pass/fail decisions come from.
pub enum ImportanceSource<'a> {
    /// Trained regressors: partition passes model i iff prediction > 0.
    Learned(&'a [Gbdt]),
    /// An oracle with perfect precision/recall (Appendix C.2): partition
    /// passes model i iff its *true* contribution exceeds threshold i.
    Oracle {
        contributions: &'a [f64],
        thresholds: &'a [f64],
    },
}

/// Sort `candidates` into importance groups, least important first
/// (Algorithm 2). Row `p` of `features` must be the normalized feature row
/// of partition `p` when using learned models; the models read it through
/// the matrix's column map, a masked-out column being `0.0`.
pub fn importance_groups(
    candidates: &[usize],
    features: &FeatureMatrix,
    source: &ImportanceSource<'_>,
) -> Vec<Vec<usize>> {
    let k = match source {
        ImportanceSource::Learned(models) => models.len(),
        ImportanceSource::Oracle { thresholds, .. } => thresholds.len(),
    };
    let mut groups: Vec<Vec<usize>> = vec![candidates.to_vec()];
    for i in 0..k {
        let to_examine = groups.last().expect("non-empty").clone();
        let (picked, kept): (Vec<usize>, Vec<usize>) =
            to_examine.into_iter().partition(|&p| match source {
                ImportanceSource::Learned(models) => {
                    models[i].predict_with(|f| features.feature(p, f)) > 0.0
                }
                ImportanceSource::Oracle {
                    contributions,
                    thresholds,
                } => contributions[p] > thresholds[i],
            });
        *groups.last_mut().expect("non-empty") = kept;
        groups.push(picked);
    }
    groups
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn oracle_funnel_partitions_by_threshold() {
        let contributions = vec![0.0, 0.005, 0.05, 0.5, 0.9];
        let thresholds = vec![0.0, 0.01, 0.1];
        let candidates: Vec<usize> = (0..5).collect();
        let groups = importance_groups(
            &candidates,
            &FeatureMatrix::from_dense(&[]),
            &ImportanceSource::Oracle {
                contributions: &contributions,
                thresholds: &thresholds,
            },
        );
        assert_eq!(groups.len(), 4);
        assert_eq!(groups[0], vec![0]); // fails c > 0
        assert_eq!(groups[1], vec![1]); // passes c>0, fails c>0.01
        assert_eq!(groups[2], vec![2]); // passes c>0.01, fails c>0.1
        assert_eq!(groups[3], vec![3, 4]); // passes everything
    }

    #[test]
    fn groups_partition_the_candidates() {
        let contributions = vec![0.3; 10];
        let thresholds = vec![0.1, 0.2, 0.5];
        let candidates: Vec<usize> = (0..10).collect();
        let groups = importance_groups(
            &candidates,
            &FeatureMatrix::from_dense(&[]),
            &ImportanceSource::Oracle {
                contributions: &contributions,
                thresholds: &thresholds,
            },
        );
        let mut all: Vec<usize> = groups.iter().flatten().copied().collect();
        all.sort_unstable();
        assert_eq!(all, candidates);
        // Everything passes thresholds 0.1 and 0.2 but fails 0.5.
        assert!(groups[0].is_empty());
        assert!(groups[1].is_empty());
        assert_eq!(groups[2].len(), 10);
        assert!(groups[3].is_empty());
    }

    #[test]
    fn learned_funnel_uses_prediction_sign() {
        // A model trained on an obvious signal: label +1 for feature > 50.
        let data: Vec<Vec<f64>> = (0..100).map(|i| vec![f64::from(i)]).collect();
        let labels: Vec<f64> = (0..100).map(|i| if i > 50 { 1.0 } else { -1.0 }).collect();
        let model = ps3_learn::Gbdt::train(
            &data,
            &labels,
            &ps3_learn::GbdtParams {
                colsample: 1.0,
                ..Default::default()
            },
        );
        let candidates: Vec<usize> = (0..100).collect();
        let groups = importance_groups(
            &candidates,
            &FeatureMatrix::from_dense(&data),
            &ImportanceSource::Learned(&[model]),
        );
        assert_eq!(groups.len(), 2);
        assert!(
            groups[1].iter().all(|&p| p > 45),
            "picked group has small rows"
        );
        assert!(groups[1].len() > 40);
    }

    #[test]
    fn empty_candidates() {
        let groups = importance_groups(
            &[],
            &FeatureMatrix::from_dense(&[]),
            &ImportanceSource::Oracle {
                contributions: &[],
                thresholds: &[0.0],
            },
        );
        assert_eq!(groups.len(), 2);
        assert!(groups.iter().all(Vec::is_empty));
    }
}
