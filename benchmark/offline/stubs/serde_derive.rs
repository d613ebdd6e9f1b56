// Stub serde_derive: emits trivial marker impls (the stub serde traits
// have no items) for non-generic structs/enums.
extern crate proc_macro;
use proc_macro::TokenStream;

fn type_name(input: &str) -> Option<String> {
    for kw in ["struct ", "enum "] {
        if let Some(pos) = input.find(kw) {
            let rest = &input[pos + kw.len()..];
            let name: String = rest
                .chars()
                .take_while(|c| c.is_alphanumeric() || *c == '_')
                .collect();
            if !name.is_empty() {
                return Some(name);
            }
        }
    }
    None
}

#[proc_macro_derive(Serialize, attributes(serde))]
pub fn ser(input: TokenStream) -> TokenStream {
    match type_name(&input.to_string()) {
        Some(n) => format!("impl serde::Serialize for {n} {{}}").parse().unwrap(),
        None => TokenStream::new(),
    }
}

#[proc_macro_derive(Deserialize, attributes(serde))]
pub fn de(input: TokenStream) -> TokenStream {
    match type_name(&input.to_string()) {
        Some(n) => format!("impl<'de> serde::Deserialize<'de> for {n} {{}}")
            .parse()
            .unwrap(),
        None => TokenStream::new(),
    }
}
