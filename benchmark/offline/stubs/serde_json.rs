//! Minimal serde_json stub: typecheck-only (stub serde can't really
//! serialize, so to_string yields an empty object and from_str errors).
use std::fmt;

#[derive(Debug)]
pub struct Error(pub String);
impl fmt::Display for Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "serde_json stub: {}", self.0)
    }
}
impl std::error::Error for Error {}

pub fn to_string<T: serde::Serialize>(_v: &T) -> Result<String, Error> {
    Ok("{}".to_string())
}
pub fn from_str<'a, T: serde::Deserialize<'a>>(_s: &'a str) -> Result<T, Error> {
    Err(Error("stub cannot deserialize".into()))
}
