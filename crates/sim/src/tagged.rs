//! [`tagged_enum!`](crate::tagged_enum): one table declares an enum and its
//! `"kind"`-tagged wire format.

/// Declares an enum whose variants serialize as flat maps tagged by a
/// `"kind"` string, from one table.
///
/// The enum is written as usual, each variant followed by `= "kind"`. From
/// that table the macro generates the enum, `kind()` (the variant's kind
/// string), [`serde::Serialize`] (a map holding `"kind"` first, then the
/// fields in declaration order) and [`serde::Deserialize`] (the inverse; an
/// unknown kind, a missing field, or a kind its fields do not give is a
/// [`serde::DeError`] naming it).
/// It also implements [`PackTagged`](crate::pack::PackTagged), the packed
/// byte form a trace log stores: the variant's index in the table as a tag
/// byte, then its fields in declaration order, each through
/// [`Pack`](crate::pack::Pack). Serializer, deserializer, packer and
/// unpacker read one field list, so they cannot drift apart.
///
/// A variant that encodes one of its fields in its kind lists every kind it
/// parses from and picks one with an expression over its fields, which are
/// bound by reference: `= "gc.young" | "gc.full" => match layer { .. }`.
///
/// The generated impls name `::serde`, so the calling crate depends on it.
///
/// ```
/// m3_sim::tagged_enum! {
///     /// What went wrong.
///     #[derive(Debug, PartialEq)]
///     pub enum Fault {
///         /// The process died.
///         Crash = "crash",
///         /// The process leaks.
///         Leak {
///             /// Bytes per second.
///             rate: u64,
///         } = "leak",
///         /// A signal was lost; the kind names which.
///         Lost {
///             /// True for a kill signal.
///             kill: bool,
///         } = "lost.kill" | "lost.other" => if *kill { "lost.kill" } else { "lost.other" },
///     }
/// }
///
/// use serde::{Content, Deserialize, Serialize};
/// let c = Fault::Leak { rate: 7 }.serialize();
/// assert_eq!(
///     c,
///     Content::Map(vec![
///         ("kind".into(), Content::Str("leak".into())),
///         ("rate".into(), Content::U64(7)),
///     ])
/// );
/// assert_eq!(Fault::deserialize(&c).unwrap(), Fault::Leak { rate: 7 });
/// assert_eq!(Fault::Lost { kill: false }.kind(), "lost.other");
/// ```
#[macro_export]
macro_rules! tagged_enum {
    (@kind $kind:literal) => {
        $kind
    };
    (@kind $kind:literal $(| $more:literal)* => $pick:expr) => {
        $pick
    };
    (
        $(#[$meta:meta])*
        $vis:vis enum $name:ident {
            $(
                $(#[$vmeta:meta])*
                $variant:ident $({
                    $( $(#[$fmeta:meta])* $field:ident : $ty:ty ),* $(,)?
                })? = $kind:literal $(| $more:literal)* $(=> $pick:expr)?
            ),* $(,)?
        }
    ) => {
        $(#[$meta])*
        $vis enum $name {
            $(
                $(#[$vmeta])*
                $variant $({ $( $(#[$fmeta])* $field: $ty ),* })?,
            )*
        }

        impl $name {
            /// The stable kind string this value serializes under.
            #[allow(unused_variables)]
            pub fn kind(&self) -> &'static str {
                match self {
                    $( Self::$variant $({ $($field),* })? =>
                        $crate::tagged_enum!(@kind $kind $(| $more)* $(=> $pick)?), )*
                }
            }
        }

        impl ::serde::Serialize for $name {
            fn serialize(&self) -> ::serde::Content {
                let kind = ::serde::Content::Str(self.kind().into());
                match self {
                    $( Self::$variant $({ $($field),* })? => ::serde::Content::Map(::std::vec![
                        ("kind".into(), kind),
                        $($( (
                            ::std::stringify!($field).into(),
                            ::serde::Serialize::serialize($field),
                        ), )*)?
                    ]), )*
                }
            }
        }

        // The packed form (`$crate::pack`): the variant's index in the
        // table as a tag byte, then its fields in the same order as above.
        const _: () = {
            #[repr(u8)]
            #[derive(Clone, Copy)]
            enum Tag {
                $( $variant, )*
            }
            const TAGS: &[Tag] = &[$( Tag::$variant ),*];

            impl $crate::pack::PackTagged for $name {
                #[inline]
                fn tag(&self) -> u8 {
                    match self {
                        $( Self::$variant { .. } => Tag::$variant as u8, )*
                    }
                }

                #[inline]
                #[allow(unused_variables)]
                fn pack_fields(&self, out: &mut ::std::vec::Vec<u8>) {
                    match self {
                        $( Self::$variant $({ $($field),* })? => {
                            $($( $crate::pack::Pack::pack($field, out); )*)?
                        } )*
                    }
                }

                #[inline]
                #[allow(unused_variables)]
                fn unpack_fields(tag: u8, r: &mut $crate::pack::Unpacker<'_>) -> Self {
                    match TAGS[usize::from(tag)] {
                        $( Tag::$variant => Self::$variant $({ $(
                            $field: $crate::pack::Pack::unpack(r),
                        )* })?, )*
                    }
                }
            }
        };

        impl ::serde::Deserialize for $name {
            fn deserialize(
                c: &::serde::Content,
            ) -> ::std::result::Result<Self, ::serde::DeError> {
                let kind: ::std::string::String = ::serde::map_field(c, "kind")?;
                let value = match kind.as_str() {
                    $( $kind $(| $more)* => Self::$variant $({ $(
                        $field: ::serde::map_field(c, ::std::stringify!($field))?,
                    )* })?, )*
                    other => return ::std::result::Result::Err(::serde::DeError::new(
                        ::std::format!("unknown {} kind `{other}`", ::std::stringify!($name)),
                    )),
                };
                if value.kind() != kind {
                    return ::std::result::Result::Err(::serde::DeError::new(::std::format!(
                        "{} kind `{kind}` disagrees with its fields, which give `{}`",
                        ::std::stringify!($name),
                        value.kind()
                    )));
                }
                ::std::result::Result::Ok(value)
            }
        }
    };
}
