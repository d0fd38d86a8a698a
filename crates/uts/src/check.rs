//! Runtime signature checking.
//!
//! The Schooner Manager type-checks every procedure call against the UTS
//! specifications. Two checks live here:
//!
//! * [`check_import_against_export`] validates that an import specification
//!   is compatible with the matching export. UTS allows the import to be,
//!   in essence, a *subset* of the export: the import's parameters must
//!   appear in the export, in order, with matching mode and type. Export
//!   parameters the import omits are filled with zero values on the way in
//!   and discarded on the way out.
//! * [`check_call_args`] validates the actual argument values of one call
//!   against the input parameters of a specification.

use crate::error::{Error, Result};
use crate::spec::ProcSpec;
use crate::value::Value;

/// The result of matching an import against an export: for each export
/// parameter, where (if anywhere) it appears in the import's list.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CheckedCall {
    /// `export_to_import[i] = Some(j)` when export parameter `i` is the
    /// import's parameter `j`; `None` when the import omits it.
    pub export_to_import: Vec<Option<usize>>,
    /// True when the import names every export parameter (the common case;
    /// NPSS does not currently exploit the subset facility).
    pub exact: bool,
}

/// Check an import specification against the export it will call.
///
/// Matching ignores the declared `name` case (procedure-name case folding
/// is handled by the Manager's synonym tables); parameter names are
/// case-sensitive, as in the original system.
pub fn check_import_against_export(import: &ProcSpec, export: &ProcSpec) -> Result<CheckedCall> {
    if !import.name.eq_ignore_ascii_case(&export.name) {
        return Err(Error::SignatureMismatch(format!(
            "import '{}' does not name export '{}'",
            import.name, export.name
        )));
    }
    let mut export_to_import = vec![None; export.params.len()];
    let mut next_export = 0usize;
    for (j, ip) in import.params.iter().enumerate() {
        // Scan forward through the export list for this import parameter:
        // the subset must preserve order.
        let mut found = None;
        for (i, ep) in export.params.iter().enumerate().skip(next_export) {
            if ep.name == ip.name {
                found = Some(i);
                break;
            }
        }
        let i = found.ok_or_else(|| {
            Error::SignatureMismatch(format!(
                "import parameter \"{}\" not found in export {} (or out of order)",
                ip.name,
                export.signature()
            ))
        })?;
        let ep = &export.params[i];
        if ep.mode != ip.mode {
            return Err(Error::SignatureMismatch(format!(
                "parameter \"{}\": import mode {} differs from export mode {}",
                ip.name, ip.mode, ep.mode
            )));
        }
        if ep.ty != ip.ty {
            return Err(Error::SignatureMismatch(format!(
                "parameter \"{}\": import type {} differs from export type {}",
                ip.name, ip.ty, ep.ty
            )));
        }
        export_to_import[i] = Some(j);
        next_export = i + 1;
    }
    let exact = import.params.len() == export.params.len();
    Ok(CheckedCall { export_to_import, exact })
}

/// Check the argument values supplied for one call against the **input**
/// parameters (`val` and `var`) of a specification.
pub fn check_call_args(spec: &ProcSpec, args: &[Value]) -> Result<()> {
    let declared = spec.input_params().count();
    if declared != args.len() {
        return Err(Error::SignatureMismatch(format!(
            "procedure '{}' takes {} input arguments, {} supplied",
            spec.name,
            declared,
            args.len()
        )));
    }
    for (p, v) in spec.input_params().zip(args) {
        v.expect_type(&p.ty).map_err(|e| {
            Error::SignatureMismatch(format!("argument \"{}\" of '{}': {e}", p.name, spec.name))
        })?;
    }
    Ok(())
}

/// Check the result values produced by one call against the **output**
/// parameters (`res` and `var`) of a specification.
pub fn check_call_results(spec: &ProcSpec, results: &[Value]) -> Result<()> {
    let declared = spec.output_params().count();
    if declared != results.len() {
        return Err(Error::SignatureMismatch(format!(
            "procedure '{}' produces {} results, {} supplied",
            spec.name,
            declared,
            results.len()
        )));
    }
    for (p, v) in spec.output_params().zip(results) {
        v.expect_type(&p.ty).map_err(|e| {
            Error::SignatureMismatch(format!("result \"{}\" of '{}': {e}", p.name, spec.name))
        })?;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::parse_spec_file;

    fn export(src: &str) -> ProcSpec {
        parse_spec_file(src).unwrap().decls[0].clone()
    }

    const SHAFT: &str = r#"
export shaft prog(
    "ecom"   val array[4] of float,
    "incom"  val integer,
    "etur"   val array[4] of float,
    "intur"  val integer,
    "ecorr"  val float,
    "xspool" val float,
    "xmyi"   val float,
    "dxspl"  res float)
"#;

    #[test]
    fn identical_import_and_export_check_exactly() {
        let exp = export(SHAFT);
        let imp = export(&SHAFT.replace("export", "import"));
        let checked = check_import_against_export(&imp, &exp).unwrap();
        assert!(checked.exact);
        assert_eq!(checked.export_to_import, (0..8).map(Some).collect::<Vec<_>>());
    }

    #[test]
    fn subset_import_is_allowed() {
        let exp = export(SHAFT);
        let imp = export(
            r#"import shaft prog(
                "ecom"  val array[4] of float,
                "intur" val integer,
                "dxspl" res float)"#,
        );
        let checked = check_import_against_export(&imp, &exp).unwrap();
        assert!(!checked.exact);
        assert_eq!(checked.export_to_import[0], Some(0));
        assert_eq!(checked.export_to_import[1], None);
        assert_eq!(checked.export_to_import[3], Some(1));
        assert_eq!(checked.export_to_import[7], Some(2));
    }

    #[test]
    fn out_of_order_subset_rejected() {
        let exp = export(SHAFT);
        let imp = export(
            r#"import shaft prog(
                "intur" val integer,
                "ecom"  val array[4] of float)"#,
        );
        assert!(check_import_against_export(&imp, &exp).is_err());
    }

    #[test]
    fn mode_mismatch_rejected() {
        let exp = export(r#"export f prog("x" val double)"#);
        let imp = export(r#"import f prog("x" var double)"#);
        let err = check_import_against_export(&imp, &exp).unwrap_err();
        assert!(err.to_string().contains("mode"));
    }

    #[test]
    fn type_mismatch_rejected() {
        let exp = export(r#"export f prog("x" val double)"#);
        let imp = export(r#"import f prog("x" val float)"#);
        let err = check_import_against_export(&imp, &exp).unwrap_err();
        assert!(err.to_string().contains("type"));
    }

    #[test]
    fn unknown_parameter_rejected() {
        let exp = export(r#"export f prog("x" val double)"#);
        let imp = export(r#"import f prog("y" val double)"#);
        assert!(check_import_against_export(&imp, &exp).is_err());
    }

    #[test]
    fn name_case_is_folded_for_procedures() {
        // Cray Fortran upper-cases names; SHAFT should match shaft.
        let exp = export(&SHAFT.replace("shaft", "SHAFT"));
        let imp = export(&SHAFT.replace("export", "import"));
        assert!(check_import_against_export(&imp, &exp).is_ok());
    }

    #[test]
    fn different_procedure_name_rejected() {
        let exp = export(r#"export g prog("x" val double)"#);
        let imp = export(r#"import f prog("x" val double)"#);
        assert!(check_import_against_export(&imp, &exp).is_err());
    }

    #[test]
    fn call_args_checked_for_count_and_type() {
        let spec = export(SHAFT);
        let good = vec![
            Value::floats(&[1.0, 2.0, 3.0, 4.0]),
            Value::Integer(2),
            Value::floats(&[1.0, 2.0, 3.0, 4.0]),
            Value::Integer(2),
            Value::Float(0.9),
            Value::Float(10000.0),
            Value::Float(1.5),
        ];
        check_call_args(&spec, &good).unwrap();

        let short = &good[..6];
        assert!(check_call_args(&spec, short).is_err());

        let mut bad = good.clone();
        bad[1] = Value::Double(2.0);
        assert!(check_call_args(&spec, &bad).is_err());
    }

    #[test]
    fn call_results_checked() {
        let spec = export(SHAFT);
        check_call_results(&spec, &[Value::Float(0.5)]).unwrap();
        assert!(check_call_results(&spec, &[]).is_err());
        assert!(check_call_results(&spec, &[Value::Double(0.5)]).is_err());
    }

    #[test]
    fn var_params_count_both_ways() {
        let spec = export(r#"export f prog("a" val double, "b" var double, "c" res double)"#);
        check_call_args(&spec, &[Value::Double(1.0), Value::Double(2.0)]).unwrap();
        check_call_results(&spec, &[Value::Double(2.5), Value::Double(3.0)]).unwrap();
    }
}
